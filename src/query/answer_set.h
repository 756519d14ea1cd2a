#ifndef ASF_QUERY_ANSWER_SET_H_
#define ASF_QUERY_ANSWER_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.h"

/// \file
/// The answer A(t) of an entity-based query: a set of stream identifiers
/// (paper §3.2: entity-based queries "return names or identifiers of
/// objects as answers").

namespace asf {

/// A set of stream ids as a bitmap over the id space plus a member count:
/// O(1) Insert / Erase / Contains, one allocation however many members,
/// and iteration in ascending id order. The bitmap grows to cover the
/// largest id ever inserted; equality ignores that capacity.
class AnswerSet {
 public:
  /// Ascending-id iterator over the set bits.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = StreamId;
    using difference_type = std::ptrdiff_t;
    using pointer = const StreamId*;
    using reference = StreamId;

    const_iterator() = default;

    StreamId operator*() const {
      return static_cast<StreamId>(w_ * 64 + std::countr_zero(bits_));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // drop the lowest member
      SkipEmpty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return w_ == other.w_ && bits_ == other.bits_;
    }

   private:
    friend class AnswerSet;
    const_iterator(const std::uint64_t* words, std::size_t num_words,
                   std::size_t w)
        : words_(words), num_words_(num_words), w_(w),
          bits_(w < num_words ? words[w] : 0) {
      SkipEmpty();
    }
    /// Moves to the next non-empty word; past the last one, becomes end().
    void SkipEmpty() {
      while (bits_ == 0 && w_ + 1 < num_words_) bits_ = words_[++w_];
      if (bits_ == 0) w_ = num_words_;
    }

    const std::uint64_t* words_ = nullptr;
    std::size_t num_words_ = 0;
    std::size_t w_ = 0;
    std::uint64_t bits_ = 0;
  };

  AnswerSet() = default;

  bool Insert(StreamId id) {
    const std::size_t w = id / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = Bit(id);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    ++size_;
    return true;
  }
  bool Erase(StreamId id) {
    const std::size_t w = id / 64;
    if (w >= words_.size() || (words_[w] & Bit(id)) == 0) return false;
    words_[w] &= ~Bit(id);
    --size_;
    return true;
  }
  bool Contains(StreamId id) const {
    const std::size_t w = id / 64;
    return w < words_.size() && (words_[w] & Bit(id)) != 0;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Empties the set and keeps its capacity.
  void Clear() {
    std::fill(words_.begin(), words_.end(), std::uint64_t{0});
    size_ = 0;
  }

  const_iterator begin() const {
    return const_iterator(words_.data(), words_.size(), 0);
  }
  const_iterator end() const {
    return const_iterator(words_.data(), words_.size(), words_.size());
  }

  /// The ids in ascending order (for deterministic output and tests).
  std::vector<StreamId> ToSortedVector() const {
    return std::vector<StreamId>(begin(), end());
  }

  bool operator==(const AnswerSet& other) const {
    if (size_ != other.size_) return false;
    const std::size_t common = std::min(words_.size(), other.words_.size());
    return std::equal(words_.begin(), words_.begin() + common,
                      other.words_.begin()) &&
           std::all_of(words_.begin() + common, words_.end(), IsZero) &&
           std::all_of(other.words_.begin() + common, other.words_.end(),
                       IsZero);
  }

 private:
  static std::uint64_t Bit(StreamId id) {
    return std::uint64_t{1} << (id % 64);
  }
  static bool IsZero(std::uint64_t word) { return word == 0; }

  std::vector<std::uint64_t> words_;  ///< bit id % 64 of word id / 64
  std::size_t size_ = 0;
};

}  // namespace asf

#endif  // ASF_QUERY_ANSWER_SET_H_
