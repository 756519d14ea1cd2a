#ifndef ASF_STORAGE_SPILL_LOG_H_
#define ASF_STORAGE_SPILL_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file
/// Append-only scratch log for spilled records — the disk half of the
/// out-of-core query-state path (DESIGN.md §13). Retired queries' closed
/// books are written once and read once, so the log is one sequential
/// file: records sit back to back (log length == payload bytes), and a
/// RecordRef is just (offset, length).
///
/// The file is created under the scratch directory and unlinked at once:
/// it lives only as an open descriptor, so even an aborted run leaves
/// nothing behind. Appends collect in a fixed kBufferBytes write buffer,
/// written out with one pwrite when the next record would not fit; a
/// record larger than the buffer is written directly. Reads of records still in
/// the buffer are served from memory, everything else by one pread.
/// Short reads/writes and I/O errors CHECK — the directory was validated
/// writable before the log was opened.
///
/// Not thread-safe: the engines drive it from the coordinator thread only
/// (retirement and result assembly are serial by contract).

namespace asf {
namespace storage {

/// Handle to one spilled record. Default-constructed = "nothing spilled".
struct RecordRef {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  std::uint64_t offset = kNone;
  std::uint32_t bytes = 0;

  bool valid() const { return offset != kNone; }
};

class SpillLog {
 public:
  /// Write-buffer capacity: the RAM the log holds, whatever it stores.
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  /// Opens (and immediately unlinks) a fresh scratch file in `dir`.
  /// CHECKs if the file cannot be created.
  explicit SpillLog(const std::string& dir);
  ~SpillLog();

  SpillLog(const SpillLog&) = delete;
  SpillLog& operator=(const SpillLog&) = delete;

  /// Appends `data` at the end of the log and returns its handle.
  RecordRef Append(const std::vector<std::uint8_t>& data);

  /// Reads the record behind `ref` back, from the buffer or the file.
  std::vector<std::uint8_t> Read(const RecordRef& ref) const;

  /// Log length in bytes: written to the file plus still buffered.
  std::uint64_t size() const { return flushed_ + buffered_; }

 private:
  /// Writes the buffered tail to the file and empties the buffer.
  void Flush();
  void WriteAt(const std::uint8_t* data, std::size_t n);

  int fd_ = -1;
  std::uint64_t flushed_ = 0;  ///< bytes in the file: the log's prefix
  /// kBufferBytes of storage; the first buffered_ hold log bytes
  /// [flushed_, size()).
  std::unique_ptr<std::uint8_t[]> buffer_;
  std::size_t buffered_ = 0;
};

}  // namespace storage
}  // namespace asf

#endif  // ASF_STORAGE_SPILL_LOG_H_
