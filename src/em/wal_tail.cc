#include "em/wal_tail.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/io_retry.h"

namespace tokra::em {
namespace {

// True while a segment of `size` bytes has no header written yet. An
// appender creates the file empty, grows it by one zero-filled block, and
// only then writes the header, so a poll can land on a 0-byte file or on an
// all-zero header block: "not formatted yet", not corruption. Once written,
// a header is never zeroed again (rotation renames a fully written segment
// over the path).
bool HeaderPending(const std::string& path, std::uint64_t size,
                   std::uint32_t block_words) {
  const std::size_t bytes = std::size_t{block_words} * sizeof(word_t);
  if (size < bytes) return true;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;  // the real open reports it
  std::vector<char> header(bytes);
  const int err = PreadFull(fd, header.data(), bytes, 0);
  ::close(fd);
  return err == 0 && std::all_of(header.begin(), header.end(),
                                 [](char c) { return c == 0; });
}

}  // namespace

StatusOr<std::uint64_t> WalTailFollower::Poll(const Callback& fn) {
  ++polls_;
  struct stat st;
  if (::stat(options_.path.c_str(), &st) != 0) {
    return Status::NotFound("no such WAL segment: " + options_.path);
  }
  if (static_cast<std::uint64_t>(st.st_ino) == last_ino_ &&
      static_cast<std::uint64_t>(st.st_size) == last_size_) {
    ++skipped_polls_;
    return std::uint64_t{0};
  }

  // An inode this follower already read is formatted; a new one may still
  // be mid-creation, which is "try again", like a missing file.
  if (static_cast<std::uint64_t>(st.st_ino) != last_ino_ &&
      HeaderPending(options_.path, static_cast<std::uint64_t>(st.st_size),
                    options_.block_words)) {
    return Status::NotFound("WAL segment not formatted yet: " +
                            options_.path);
  }

  WriteAheadLog::Options o;
  o.path = options_.path;
  o.block_words = options_.block_words;
  o.read_only = true;
  o.hint_base_lsn = hint_base_;
  o.hint_lsn = hint_lsn_;
  o.hint_block = hint_block_;
  TOKRA_ASSIGN_OR_RETURN(auto reader, WalReader::Open(std::move(o)));

  // The log can only have rotated past (base_lsn - 1); anything the
  // consumer still needed from before that is unobtainable.
  if (reader->base_lsn() > delivered_ + 1) {
    return Status::OutOfRange(
        "WAL rotated past undelivered records: " + options_.path +
        " base=" + std::to_string(reader->base_lsn()) +
        " delivered=" + std::to_string(delivered_));
  }

  reader->Seek(delivered_);
  std::uint64_t n = 0;
  WriteAheadLog::Record rec;
  std::vector<word_t> payload;
  Status cb_status;
  while (reader->Next(&rec, &payload)) {
    cb_status = fn(rec, payload);
    if (!cb_status.ok()) break;
    delivered_ = rec.lsn;
    ++n;
  }
  head_ = reader->head_lsn();
  // The hint promises the caller holds everything below hint_lsn, and the
  // fast path promises nothing new is visible — both only true when every
  // scanned record was delivered. A callback abort strands records in
  // (delivered, head]; the next poll must rescan them for real.
  if (cb_status.ok() && delivered_ == head_) {
    hint_base_ = reader->base_lsn();
    hint_lsn_ = reader->head_lsn() + 1;
    hint_block_ = reader->tail_block();
    last_ino_ = static_cast<std::uint64_t>(st.st_ino);
    last_size_ = static_cast<std::uint64_t>(st.st_size);
  } else {
    hint_base_ = 0;
    hint_lsn_ = 0;
    hint_block_ = 0;
    last_ino_ = 0;
    last_size_ = std::uint64_t(-1);
  }
  TOKRA_RETURN_IF_ERROR(cb_status);
  return n;
}

}  // namespace tokra::em
