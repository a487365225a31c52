// cfrecord: a record-oriented binary container with TFRecord framing.
//
// The paper stores its 1.4 TB training set as TFRecord files of 64
// samples each (§IV-C). Each record is framed exactly as TFRecord
// frames it:
//
//   uint64  length          (little endian)
//   uint32  masked crc32c(length bytes)
//   bytes   payload[length]
//   uint32  masked crc32c(payload)
//
// so short writes, bit rot and misaligned seeks all surface as
// CorruptRecordError at read time rather than as silently-wrong
// training data.
//
// Reading has two modes (DESIGN.md §2.7):
//
//  * mmap (the default where the platform supports it) — the whole
//    shard is mapped read-only and read_view()/view_at() return
//    validated spans straight out of the page cache: zero copies
//    between the file and the deserializer. A mapped reader's
//    view_at() is const and thread-safe, so one reader (its mapping
//    and its index) is shared by every I/O thread.
//  * stream (the fallback where mapping is unavailable, and the
//    reference the data-path tests compare mmap against) — buffered
//    ifstream reads into caller buffers, one private reader per
//    thread.
//
// Both modes validate the same framing and CRCs and deliver
// byte-identical payloads.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cf::data {

class CorruptRecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class RecordWriter {
 public:
  explicit RecordWriter(const std::string& path);
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  void write(std::span<const std::uint8_t> payload);
  std::size_t records_written() const noexcept { return count_; }

  /// Flushes and closes; throws on I/O failure. Called by the
  /// destructor if not called explicitly (errors then swallowed).
  void close();

 private:
  std::ofstream out_;
  std::string path_;
  /// Frame assembly scratch (header + payload + footer written as one
  /// out_.write); capacity persists across records.
  std::vector<std::uint8_t> frame_;
  std::size_t count_ = 0;
  bool closed_ = false;
};

enum class ReaderMode {
  kAuto,    ///< mmap when the platform supports it, else stream.
  kStream,  ///< buffered ifstream reads: the platform fallback and
            ///< the tests' reference for mmap.
  kMmap,    ///< mapped file; construction throws if mapping fails.
};

class RecordReader {
 public:
  explicit RecordReader(const std::string& path,
                        ReaderMode mode = ReaderMode::kAuto);
  ~RecordReader();

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  /// Reads the next record; returns false at (clean) end of file.
  /// Throws CorruptRecordError on framing or checksum violations.
  bool read(std::vector<std::uint8_t>& payload);

  /// Zero-copy variant of read(): `*payload` points into the mapped
  /// file (mmap mode; valid for the reader's lifetime) or into an
  /// internal scratch buffer (stream mode; valid until the next read
  /// on this reader).
  bool read_view(std::span<const std::uint8_t>* payload);

  /// Byte offsets of every record in the file (a full validating
  /// scan); enables O(1) random access via read_at/view_at.
  std::vector<std::uint64_t> build_index();

  /// Reads the record at a byte offset previously returned by
  /// build_index().
  void read_at(std::uint64_t offset, std::vector<std::uint8_t>& payload);

  /// Validated zero-copy view of the record at `offset`. mmap mode
  /// only (throws std::logic_error in stream mode); const and safe to
  /// call concurrently from any number of threads.
  std::span<const std::uint8_t> view_at(std::uint64_t offset) const;

  /// True when the file is memory-mapped (view_at available).
  bool mapped() const noexcept { return map_data_ != nullptr; }

  const std::string& path() const noexcept { return path_; }

 private:
  bool read_one(std::vector<std::uint8_t>& payload);
  /// Parses and validates the frame at `offset` in the mapping;
  /// returns the payload view and sets `*next` to the following
  /// frame's offset. Throws CorruptRecordError.
  std::span<const std::uint8_t> parse_mapped(std::uint64_t offset,
                                             std::uint64_t* next) const;

  std::ifstream in_;
  std::string path_;
  std::uint64_t file_size_ = 0;

  // mmap mode state; null when streaming.
  const std::uint8_t* map_data_ = nullptr;
  std::size_t map_size_ = 0;
  std::uint64_t cursor_ = 0;  // sequential read position (mmap mode)

  // Stream-mode scratch backing read_view().
  std::vector<std::uint8_t> scratch_;
};

}  // namespace cf::data
