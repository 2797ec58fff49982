#include "common/binary_io.h"

#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "common/macros.h"

namespace churnlab {

void BinaryWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    buffer_ += static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  buffer_ += static_cast<char>(value);
}

void BinaryWriter::WriteSignedVarint(int64_t value) {
  const uint64_t zigzag =
      (static_cast<uint64_t>(value) << 1) ^
      static_cast<uint64_t>(value >> 63);
  WriteVarint(zigzag);
}

void BinaryWriter::WriteDouble(double value) {
  static_assert(sizeof(double) == 8);
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  buffer_.append(bytes, 8);
}

void BinaryWriter::WriteString(std::string_view value) {
  WriteVarint(value.size());
  buffer_.append(value.data(), value.size());
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

Status BinaryWriter::WriteTo(const std::string& path, bool append) const {
  static Failpoint* const save_failpoint =
      FailpointRegistry::Global().Get("common.binary_io.save");
  const std::string* bytes = &buffer_;
  std::string corrupted;
  if (save_failpoint->armed()) {
    // Corrupt a copy so the in-memory writer stays pristine; error/throw
    // actions fire here, before the file is touched.
    corrupted = buffer_;
    CHURNLAB_RETURN_NOT_OK(save_failpoint->CorruptBytes(&corrupted));
    bytes = &corrupted;
  }
  const auto mode =
      std::ios::binary | (append ? std::ios::app : std::ios::trunc);
  std::ofstream file(path, mode);
  if (!file) return Status::IOError("cannot open '" + path + "' for writing");
  file.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
  file.close();
  if (file.fail()) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Status BinaryWriter::SaveToFile(const std::string& path) const {
  return WriteTo(path, /*append=*/false);
}

Status BinaryWriter::AppendToFile(const std::string& path) const {
  return WriteTo(path, /*append=*/true);
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  // Table generated once from the reflected polynomial; byte-at-a-time is
  // plenty for snapshot frames (checksum cost is dwarfed by serialization).
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = ~seed;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ bytes[i]) & 0xFF];
  }
  return ~crc;
}

Result<BinaryReader> BinaryReader::OpenFile(const std::string& path) {
  static Failpoint* const open_failpoint =
      FailpointRegistry::Global().Get("common.binary_io.open");
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open '" + path + "' for reading");
  // file_size fails for anything but a regular file (a directory opens
  // fine but has no meaningful size).
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return Status::IOError("error while reading '" + path + "'");
  std::string buffer(static_cast<size_t>(size), '\0');
  file.read(buffer.data(), static_cast<std::streamsize>(size));
  if (static_cast<uintmax_t>(file.gcount()) != size) {
    return Status::IOError("error while reading '" + path + "'");
  }
  if (open_failpoint->armed()) {
    CHURNLAB_RETURN_NOT_OK(open_failpoint->CorruptBytes(&buffer));
  }
  return BinaryReader(std::move(buffer));
}

uint64_t ByteCursor::ReadVarintSlow() {
  if (!ok()) return 0;
  uint64_t value = 0;
  int shift = 0;
  for (const uint8_t* p = pos_; p < end_; ++p) {
    const uint8_t byte = *p;
    if (shift >= 64 || (shift == 63 && (byte & 0x7F) > 1)) {
      Fail(Status::OutOfRange("varint overflows 64 bits"));
      return 0;
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      pos_ = p + 1;
      return value;
    }
    shift += 7;
  }
  Fail(Status::OutOfRange("truncated varint at end of buffer"));
  return 0;
}

void ByteCursor::Fail(Status status) {
  if (ok()) status_ = std::move(status);
  pos_ = end_;
}

namespace {

/// One value through `read` of a cursor at the reader's position; the
/// reader moves only when the read succeeded.
template <typename T>
Result<T> ReadOne(BinaryReader* reader, T (ByteCursor::*read)()) {
  ByteCursor cursor = reader->Cursor();
  const T value = (cursor.*read)();
  if (!cursor.ok()) return cursor.status();
  reader->Seek(cursor);
  return value;
}

}  // namespace

Result<uint64_t> BinaryReader::ReadVarint() {
  return ReadOne(this, &ByteCursor::ReadVarint);
}

Result<int64_t> BinaryReader::ReadSignedVarint() {
  return ReadOne(this, &ByteCursor::ReadSignedVarint);
}

Result<double> BinaryReader::ReadDouble() {
  return ReadOne(this, &ByteCursor::ReadDouble);
}

Result<std::string> BinaryReader::ReadString() {
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t size, ReadVarint());
  if (remaining() < size) {
    return Status::OutOfRange("truncated string at end of buffer");
  }
  std::string value = buffer_.substr(pos_, size);
  pos_ += size;
  return value;
}

Result<std::string> BinaryReader::ReadBytes(size_t size) {
  if (remaining() < size) {
    return Status::InvalidArgument(
        "length prefix (" + std::to_string(size) +
        " bytes) exceeds remaining buffer (" + std::to_string(remaining()) +
        " bytes)");
  }
  std::string value = buffer_.substr(pos_, size);
  pos_ += size;
  return value;
}

}  // namespace churnlab
