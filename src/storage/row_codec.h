// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Fixed-width row encoding — the "uncompressed index" layout of the paper.
//
// Every column is stored at its declared width: char(k)/varchar(k) are
// space-padded on the right; integers are little-endian two's complement.
// NullSuppressedLength() returns the paper's l_i: the number of bytes that
// remain after suppressing padding blanks (strings) or leading zero bytes
// (integers).

#ifndef CFEST_STORAGE_ROW_CODEC_H_
#define CFEST_STORAGE_ROW_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace cfest {

/// \brief A row at the API boundary: one Value per schema column.
using Row = std::vector<Value>;

/// \brief Encodes/decodes rows to/from the fixed-width uncompressed layout.
class RowCodec {
 public:
  explicit RowCodec(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Appends the encoded row to *out. Fails if arity or types mismatch, or a
  /// string exceeds its declared length.
  Status Encode(const Row& row, std::string* out) const;

  /// Encodes a single cell (value of column col) to *out.
  Status EncodeCell(const Value& v, size_t col, std::string* out) const;

  /// Decodes an encoded row (row_width bytes).
  Result<Row> Decode(Slice encoded) const;

  /// Decodes the cell of column col from an encoded row.
  Result<Value> DecodeCell(Slice encoded_row, size_t col) const;

  /// Zero-copy view of column col's fixed-width cell within an encoded row.
  Slice Cell(Slice encoded_row, size_t col) const {
    return encoded_row.SubSlice(schema_.offset(col), schema_.width(col));
  }

 private:
  Schema schema_;
};

/// Writes a string cell: s (at most width bytes) followed by blank padding
/// up to width bytes.
inline void WriteStringCell(std::string_view s, uint32_t width, char* out) {
  std::memcpy(out, s.data(), s.size());
  std::memset(out + s.size(), ' ', width - s.size());
}

/// Whether v fits a signed integer cell of width bytes (1..8).
inline bool IntegerFitsWidth(int64_t v, uint32_t width) {
  if (width >= 8) return true;
  const int64_t bound = int64_t{1} << (8 * width - 1);
  return v >= -bound && v < bound;
}

/// Writes an integer cell: the low width bytes of v's two's complement,
/// little-endian. v must fit (IntegerFitsWidth).
inline void WriteIntegerCell(int64_t v, uint32_t width, char* out) {
  for (uint32_t i = 0; i < width; ++i) {
    out[i] = static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xFF);
  }
}

/// \brief The paper's null-suppressed length l of a fixed-width cell.
///
/// Strings: declared width minus trailing blanks (ASCII 0x20) and NULs; a
/// fully blank cell has length 0. Integers: width minus leading zero bytes of
/// the little-endian encoding, i.e. the number of significant bytes (the
/// value 0 has length 0).
uint32_t NullSuppressedLength(Slice cell, const DataType& type);

/// Bytes needed to record a suppressed length for this type: 1 if the
/// declared width fits in one byte (<= 255), else 2. This is the "+1" term of
/// the paper's CF_NS formula generalised to wide columns.
uint32_t LengthHeaderBytes(const DataType& type);

}  // namespace cfest

#endif  // CFEST_STORAGE_ROW_CODEC_H_
