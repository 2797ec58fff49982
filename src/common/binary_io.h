#ifndef CHURNLAB_COMMON_BINARY_IO_H_
#define CHURNLAB_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace churnlab {

/// \brief Growable little-endian binary output buffer used by the dataset
/// binary format.
///
/// Integers are written as LEB128 varints (datasets are mostly small ids, so
/// varints roughly halve file size versus fixed width); doubles as raw IEEE
/// bytes; strings as varint length + bytes.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteVarint(uint64_t value);
  /// ZigZag-encoded signed varint.
  void WriteSignedVarint(int64_t value);
  void WriteDouble(double value);
  void WriteString(std::string_view value);
  void WriteBytes(const void* data, size_t size);

  const std::string& buffer() const { return buffer_; }

  /// Writes the accumulated buffer to `path` (truncating). Failpoint site
  /// `common.binary_io.save` (corrupt-bytes flips a bit of the written copy,
  /// never of the in-memory buffer).
  Status SaveToFile(const std::string& path) const;

  /// Appends the accumulated buffer to `path` (creating it if absent).
  /// Used by append-only formats such as fleet snapshot generations. Same
  /// failpoint site as SaveToFile.
  Status AppendToFile(const std::string& path) const;

 private:
  Status WriteTo(const std::string& path, bool append) const;

  std::string buffer_;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `size` bytes at `data`,
/// continued from `seed` (pass a previous return value to checksum data in
/// chunks; 0 starts a fresh checksum). Used by the fleet snapshot format to
/// detect torn or corrupted shard frames.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// \brief Bounds-checked raw decoder over a byte range, for hot loops.
///
/// Reads the BinaryWriter encodings without a Result per value: the first
/// truncated or overlong value latches its error (the same Status
/// BinaryReader reports for it) and moves the cursor to the end, so every
/// later read returns 0 and a loop can decode a whole record before it
/// tests ok() once. No read ever looks past the end of the range.
class ByteCursor {
 public:
  ByteCursor(const char* begin, const char* end)
      : pos_(reinterpret_cast<const uint8_t*>(begin)),
        end_(reinterpret_cast<const uint8_t*>(end)) {}

  uint64_t ReadVarint() {
    // Inline one- and two-byte values (ids, days, item deltas); the rest,
    // and every bounds or overflow error, take the general loop.
    if (end_ - pos_ >= 2) {
      const uint64_t low = pos_[0];
      if (low < 0x80) {
        pos_ += 1;
        return low;
      }
      const uint64_t high = pos_[1];
      if (high < 0x80) {
        pos_ += 2;
        return (low & 0x7F) | (high << 7);
      }
    }
    return ReadVarintSlow();
  }
  int64_t ReadSignedVarint() {
    const uint64_t zigzag = ReadVarint();
    return static_cast<int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
  }
  double ReadDouble() {
    double value = 0.0;
    if (remaining() < sizeof(value)) {
      Fail(Status::OutOfRange("truncated double at end of buffer"));
      return value;
    }
    std::memcpy(&value, pos_, sizeof(value));
    pos_ += sizeof(value);
    return value;
  }

  bool ok() const { return status_.ok(); }
  /// OK, or the first error met.
  const Status& status() const { return status_; }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  const char* position() const {
    return reinterpret_cast<const char*>(pos_);
  }

 private:
  uint64_t ReadVarintSlow();
  void Fail(Status status);

  const uint8_t* pos_;
  const uint8_t* end_;
  Status status_;
};

/// \brief Reader over a binary buffer produced by BinaryWriter.
///
/// All reads are bounds-checked: fixed-width and varint reads return
/// OutOfRange on truncated input, while ReadBytes — whose size is an
/// untrusted, externally-framed length prefix — returns InvalidArgument
/// when the prefix exceeds the remaining buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::string buffer) : buffer_(std::move(buffer)) {}

  /// Loads the whole file at `path` into a reader with one sized read.
  /// Failpoint site `common.binary_io.open` (corrupt-bytes flips a bit of
  /// the loaded copy).
  static Result<BinaryReader> OpenFile(const std::string& path);

  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadSignedVarint();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// Reads exactly `size` raw bytes (the counterpart of WriteBytes when the
  /// length is framed externally, e.g. snapshot shard frames). `size` is
  /// treated as untrusted: a prefix larger than the remaining buffer fails
  /// with InvalidArgument before any allocation is sized from it.
  Result<std::string> ReadBytes(size_t size);

  /// A cursor over the unread bytes, for decoding many values at once;
  /// hand it back to Seek to consume what it read.
  ByteCursor Cursor() const {
    return ByteCursor(buffer_.data() + pos_, buffer_.data() + buffer_.size());
  }
  /// Moves the read position to `cursor`'s, which must come from Cursor()
  /// on this reader.
  void Seek(const ByteCursor& cursor) {
    pos_ = static_cast<size_t>(cursor.position() - buffer_.data());
  }

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ >= buffer_.size(); }
  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace churnlab

#endif  // CHURNLAB_COMMON_BINARY_IO_H_
