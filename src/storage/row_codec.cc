#include "storage/row_codec.h"

#include <cstring>

namespace cfest {
namespace {

int64_t ReadLittleEndian(Slice cell, uint32_t width) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(cell[i])) << (8 * i);
  }
  // Sign-extend narrow integers.
  if (width < 8) {
    const uint64_t sign_bit = 1ull << (8 * width - 1);
    if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Status RowCodec::EncodeCell(const Value& v, size_t col, std::string* out) const {
  const DataType& type = schema_.column(col).type;
  const uint32_t width = type.FixedWidth();
  if (type.IsString()) {
    if (!v.is_string()) {
      return Status::InvalidArgument("column " + schema_.column(col).name +
                                     " expects a string value");
    }
    const std::string& s = v.AsString();
    if (s.size() > width) {
      return Status::OutOfRange("value of length " + std::to_string(s.size()) +
                                " exceeds " + type.ToString() + " for column " +
                                schema_.column(col).name);
    }
    const size_t at = out->size();
    out->resize(at + width);
    WriteStringCell(s, width, out->data() + at);
  } else {
    if (v.is_string()) {
      return Status::InvalidArgument("column " + schema_.column(col).name +
                                     " expects an integer value");
    }
    const int64_t iv = v.AsInt();
    if (!IntegerFitsWidth(iv, width)) {
      return Status::OutOfRange("integer " + std::to_string(iv) +
                                " does not fit in " + type.ToString());
    }
    const size_t at = out->size();
    out->resize(at + width);
    WriteIntegerCell(iv, width, out->data() + at);
  }
  return Status::OK();
}

Status RowCodec::Encode(const Row& row, std::string* out) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  const size_t base = out->size();
  for (size_t c = 0; c < row.size(); ++c) {
    Status st = EncodeCell(row[c], c, out);
    if (!st.ok()) {
      out->resize(base);  // leave *out unchanged on failure
      return st;
    }
  }
  return Status::OK();
}

Result<Value> RowCodec::DecodeCell(Slice encoded_row, size_t col) const {
  if (encoded_row.size() < schema_.row_width()) {
    return Status::Corruption("encoded row too short: " +
                              std::to_string(encoded_row.size()) + " < " +
                              std::to_string(schema_.row_width()));
  }
  const DataType& type = schema_.column(col).type;
  Slice cell = Cell(encoded_row, col);
  if (type.IsString()) {
    size_t len = cell.size();
    while (len > 0 && (cell[len - 1] == ' ' || cell[len - 1] == '\0')) --len;
    return Value::Str(std::string(cell.data(), len));
  }
  return Value::Int(ReadLittleEndian(cell, type.FixedWidth()));
}

Result<Row> RowCodec::Decode(Slice encoded) const {
  Row row;
  row.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    CFEST_ASSIGN_OR_RETURN(Value v, DecodeCell(encoded, c));
    row.push_back(std::move(v));
  }
  return row;
}

uint32_t NullSuppressedLength(Slice cell, const DataType& type) {
  uint32_t len = static_cast<uint32_t>(cell.size());
  if (type.IsString()) {
    while (len > 0 && (cell[len - 1] == ' ' || cell[len - 1] == '\0')) --len;
    return len;
  }
  while (len > 0 && cell[len - 1] == '\0') --len;
  return len;
}

uint32_t LengthHeaderBytes(const DataType& type) {
  return type.FixedWidth() <= 255 ? 1 : 2;
}

}  // namespace cfest
