#include "storage/spill_log.h"

#include <cstring>

#include <stdlib.h>
#include <unistd.h>

#include "common/check.h"

namespace asf {
namespace storage {

SpillLog::SpillLog(const std::string& dir)
    : buffer_(new std::uint8_t[kBufferBytes]) {
  std::string path = dir + "/asf-spill-XXXXXX";
  fd_ = mkstemp(path.data());
  ASF_CHECK_MSG(fd_ >= 0, ("cannot create spill log in " + dir).c_str());
  ASF_CHECK_MSG(unlink(path.c_str()) == 0, "cannot unlink the spill log");
}

SpillLog::~SpillLog() { close(fd_); }

RecordRef SpillLog::Append(const std::vector<std::uint8_t>& data) {
  // A record never straddles the buffer and the file, so Read finds it
  // whole in one place.
  if (buffered_ + data.size() > kBufferBytes) Flush();
  RecordRef ref;
  ref.offset = size();
  ref.bytes = static_cast<std::uint32_t>(data.size());
  if (data.size() > kBufferBytes) {
    WriteAt(data.data(), data.size());
  } else if (!data.empty()) {  // data.data() may be null
    std::memcpy(buffer_.get() + buffered_, data.data(), data.size());
    buffered_ += data.size();
  }
  return ref;
}

std::vector<std::uint8_t> SpillLog::Read(const RecordRef& ref) const {
  ASF_CHECK_MSG(ref.valid() && ref.offset + ref.bytes <= size(),
                "read of an unspilled record");
  std::vector<std::uint8_t> out(ref.bytes);
  if (out.empty()) return out;  // out.data() may be null
  if (ref.offset >= flushed_) {
    std::memcpy(out.data(), buffer_.get() + (ref.offset - flushed_),
                out.size());
  } else {
    const ssize_t got = pread(fd_, out.data(), out.size(),
                              static_cast<off_t>(ref.offset));
    ASF_CHECK_MSG(got == static_cast<ssize_t>(out.size()),
                  "spill log read failed");
  }
  return out;
}

void SpillLog::Flush() {
  if (buffered_ == 0) return;
  WriteAt(buffer_.get(), buffered_);
  buffered_ = 0;
}

void SpillLog::WriteAt(const std::uint8_t* data, std::size_t n) {
  const ssize_t put = pwrite(fd_, data, n, static_cast<off_t>(flushed_));
  ASF_CHECK_MSG(put == static_cast<ssize_t>(n), "spill log write failed");
  flushed_ += n;
}

}  // namespace storage
}  // namespace asf
