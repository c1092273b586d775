#include "storage/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace cfest {
namespace {

Result<DataType> ParseTypeName(const std::string& name) {
  if (name == "int32") return Int32Type();
  if (name == "int64") return Int64Type();
  if (name == "date") return DateType();
  if (name == "decimal") return DecimalType();
  for (const char* prefix : {"char(", "varchar("}) {
    const std::string p(prefix);
    if (name.size() > p.size() + 1 && name.compare(0, p.size(), p) == 0 &&
        name.back() == ')') {
      const std::string digits = name.substr(p.size(),
                                             name.size() - p.size() - 1);
      char* end = nullptr;
      const unsigned long k = std::strtoul(digits.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || k == 0 || k > 0xFFFF) {
        return Status::InvalidArgument("bad string length in type: " + name);
      }
      return p == "char(" ? CharType(static_cast<uint32_t>(k))
                          : VarcharType(static_cast<uint32_t>(k));
    }
  }
  return Status::InvalidArgument("unknown type: " + name);
}

/// Splits CSV text into records without copying unquoted fields: a field
/// is a view into the text, and only a field that had quotes is unescaped,
/// into a buffer reused from one record to the next.
class RecordReader {
 public:
  explicit RecordReader(std::string_view text) : text_(text) {}

  /// Reads the record at the cursor and advances past its line end
  /// (\r\n, \r or \n). Returns false at end of input, or with *error set
  /// on a malformed record. *any_content reports whether the record held
  /// any character or quoting, so a genuinely blank line is
  /// distinguishable from a single quoted-empty field "".
  bool Next(bool* any_content, Status* error) {
    fields_.clear();
    unescaped_.clear();
    *any_content = false;
    const size_t n = text_.size();
    if (pos_ >= n) return false;
    while (true) {
      FieldRef field{pos_, 0, false};
      if (pos_ < n && text_[pos_] == '"') {
        // A quote opens a quoted section only at the start of a field.
        *any_content = true;
        field = {unescaped_.size(), 0, true};
        if (!UnescapeQuoted()) {
          *error = Status::InvalidArgument("unterminated quoted CSV field");
          return false;
        }
        // Characters after the closing quote belong to the same field.
        const size_t end = ScanUnquoted(pos_);
        unescaped_.append(text_.data() + pos_, end - pos_);
        pos_ = end;
        field.size = unescaped_.size() - field.begin;
      } else {
        pos_ = ScanUnquoted(pos_);
        field.size = pos_ - field.begin;
        if (field.size > 0) *any_content = true;
      }
      if (pos_ < n && text_[pos_] == '"') {
        *error = Status::InvalidArgument(
            "quote inside unquoted CSV field near offset " +
            std::to_string(pos_));
        return false;
      }
      fields_.push_back(field);
      if (pos_ >= n) return true;
      const char c = text_[pos_++];
      if (c == ',') {
        *any_content = true;
        continue;
      }
      if (c == '\r' && pos_ < n && text_[pos_] == '\n') ++pos_;
      return true;
    }
  }

  size_t num_fields() const { return fields_.size(); }

  /// Byte offset of the cursor: the start of the record Next reads next.
  size_t pos() const { return pos_; }
  /// Moves the cursor to `pos`, which must be the start of a record.
  void Seek(size_t pos) { pos_ = pos; }

  /// Field i of the last record; valid until the next call to Next.
  std::string_view field(size_t i) const {
    const FieldRef& f = fields_[i];
    return (f.unescaped ? std::string_view(unescaped_) : text_)
        .substr(f.begin, f.size);
  }

 private:
  /// A field as a range of the text, or of unescaped_ for a quoted one.
  struct FieldRef {
    size_t begin;
    size_t size;
    bool unescaped;
  };

  /// First position at or after pos holding a delimiter, a line end or a
  /// quote; the text's size if there is none.
  size_t ScanUnquoted(size_t pos) const {
    while (pos < text_.size()) {
      const char c = text_[pos];
      if (c == ',' || c == '\n' || c == '\r' || c == '"') break;
      ++pos;
    }
    return pos;
  }

  /// With the cursor on an opening quote, appends the quoted section to
  /// unescaped_ ("" stands for one quote) and moves past the closing
  /// quote. Returns false if the text ends inside the quotes.
  bool UnescapeQuoted() {
    ++pos_;
    while (pos_ < text_.size()) {
      const size_t quote = text_.find('"', pos_);
      if (quote == std::string_view::npos) break;
      unescaped_.append(text_.data() + pos_, quote - pos_);
      if (quote + 1 < text_.size() && text_[quote + 1] == '"') {
        unescaped_.push_back('"');
        pos_ = quote + 2;
        continue;
      }
      pos_ = quote + 1;
      return true;
    }
    return false;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<FieldRef> fields_;
  std::string unescaped_;
};

/// Parses an integer cell with strtoll's base-10 syntax: leading
/// whitespace, an optional sign, and a NUL ends the number. Returns false
/// if the text is not an integer; sets *saturated when strtoll would clamp
/// the value to the int64 range. Plain [sign]digits cells of up to 18
/// digits (which cannot overflow) skip the copy strtoll needs.
bool ParseInteger(std::string_view text, std::string* scratch,
                  int64_t* value, bool* saturated) {
  *saturated = false;
  const size_t sign = (text[0] == '-' || text[0] == '+') ? 1 : 0;
  if (text.size() > sign && text.size() - sign <= 18) {
    uint64_t v = 0;
    size_t i = sign;
    for (; i < text.size(); ++i) {
      const unsigned digit = static_cast<unsigned char>(text[i]) - '0';
      if (digit > 9) break;
      v = v * 10 + digit;
    }
    if (i == text.size()) {
      *value = text[0] == '-' ? -static_cast<int64_t>(v)
                              : static_cast<int64_t>(v);
      return true;
    }
  }
  scratch->assign(text);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(scratch->c_str(), &end, 10);
  if (*end != '\0') return false;
  *saturated = errno == ERANGE;
  *value = v;
  return true;
}

/// Validates one cell of a record and writes its fixed-width encoding
/// (storage/row_codec.h) to out, which has room for the column's width.
/// The error names the cell; AtLine adds the record's line.
Status EncodeCell(std::string_view field, const Column& column,
                  std::string* scratch, char* out) {
  const DataType& type = column.type;
  const uint32_t width = type.FixedWidth();
  if (type.IsString()) {
    if (field.size() > width) {
      return Status::OutOfRange("value '" + std::string(field) +
                                "' exceeds " + type.ToString());
    }
    WriteStringCell(field, width, out);
    return Status::OK();
  }
  if (field.empty()) return Status::InvalidArgument("empty integer cell");
  int64_t value = 0;
  bool saturated = false;
  if (!ParseInteger(field, scratch, &value, &saturated)) {
    return Status::InvalidArgument("not an integer: '" + std::string(field) +
                                   "'");
  }
  if (saturated || !IntegerFitsWidth(value, width)) {
    return Status::OutOfRange("integer '" + std::string(field) +
                              "' out of range for " + type.ToString() +
                              " (column " + column.name + ")");
  }
  WriteIntegerCell(value, width, out);
  return Status::OK();
}

/// Encodes the record the reader just read into out (schema.row_width()
/// bytes).
Status EncodeRecord(const RecordReader& reader, const Schema& schema,
                    std::string* scratch, char* out) {
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    CFEST_RETURN_NOT_OK(EncodeCell(reader.field(c), schema.column(c), scratch,
                                   out + schema.offset(c)));
  }
  return Status::OK();
}

/// Occurrences of `c` in [p, end), counted in fixed 32-byte blocks: a loop
/// shape the compiler vectorizes at -O2, about twice std::count's speed.
size_t CountByte(const char* p, const char* end, char c) {
  constexpr ptrdiff_t kBlock = 32;
  size_t total = 0;
  for (; end - p >= kBlock; p += kBlock) {
    unsigned block = 0;
    for (ptrdiff_t i = 0; i < kBlock; ++i) block += p[i] == c;
    total += block;
  }
  for (; p < end; ++p) total += *p == c;
  return total;
}

/// `status` with "line N: " in front of its message.
Status AtLine(const Status& status, uint64_t line) {
  return Status(status.code(),
                "line " + std::to_string(line) + ": " + status.message());
}

Status FieldCountError(uint64_t line, size_t fields, const Schema& schema) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 std::to_string(fields) +
                                 " fields, schema has " +
                                 std::to_string(schema.num_columns()));
}

metrics::Counter* BytesScannedCounter() {
  static metrics::Counter* const counter =
      metrics::MetricRegistry::Global().GetCounter(
          "cfest.ingest.bytes_scanned");
  return counter;
}

metrics::Counter* RowsParsedCounter() {
  static metrics::Counter* const counter =
      metrics::MetricRegistry::Global().GetCounter("cfest.ingest.rows_parsed");
  return counter;
}

/// Rows to reserve before parsing: one per line break, plus a last line
/// without one. Blank lines and line breaks inside quoted fields make that
/// an overcount, so the reservation is capped at kReserveExpansion bytes
/// per byte of text; a table that outgrows the cap grows by doubling.
uint64_t RowsToReserve(std::string_view text, uint32_t row_width) {
  constexpr uint64_t kReserveExpansion = 4;
  uint64_t lines = 1;
  const char* end = text.data() + text.size();
  for (const char* p = text.data();
       (p = static_cast<const char*>(std::memchr(p, '\n', end - p))) !=
       nullptr;
       ++p) {
    ++lines;
  }
  const uint64_t cap =
      kReserveExpansion * text.size() / std::max<uint32_t>(row_width, 1) + 1;
  return std::min(lines, cap);
}

bool NeedsQuoting(const std::string& s) {
  for (char c : s) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendCsvField(const std::string& s, std::string* out) {
  if (!NeedsQuoting(s)) {
    *out += s;
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> columns;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    // Commas inside "char(...)" never occur, so a plain find is safe.
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return Status::InvalidArgument("bad schema item: '" + item +
                                     "' (want name:type)");
    }
    CFEST_ASSIGN_OR_RETURN(DataType type,
                           ParseTypeName(item.substr(colon + 1)));
    columns.push_back(Column{item.substr(0, colon), type});
    pos = comma + 1;
  }
  return Schema::Make(std::move(columns));
}

std::string SchemaToSpec(const Schema& schema) {
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += schema.column(c).name + ":" + schema.column(c).type.ToString();
  }
  return out;
}

Result<std::unique_ptr<Table>> LoadCsv(const std::string& content,
                                       const Schema& schema,
                                       bool has_header) {
  trace::Span span("ingest.load_csv");
  TableBuilder builder(schema);
  builder.Reserve(RowsToReserve(content, schema.row_width()));
  RecordReader reader(content);
  std::string row(schema.row_width(), ' ');
  std::string scratch;
  uint64_t line = 0;
  bool any_content = false;
  Status error;
  while (reader.Next(&any_content, &error)) {
    ++line;
    if (line == 1 && has_header) continue;
    if (!any_content) continue;  // genuinely blank line
    if (reader.num_fields() != schema.num_columns()) {
      return FieldCountError(line, reader.num_fields(), schema);
    }
    Status st = EncodeRecord(reader, schema, &scratch, row.data());
    if (!st.ok()) return AtLine(st, line);
    CFEST_RETURN_NOT_OK(builder.AppendEncoded(Slice(row)));
  }
  CFEST_RETURN_NOT_OK(error);
  BytesScannedCounter()->Add(content.size());
  RowsParsedCounter()->Add(builder.num_rows());
  return builder.Finish();
}

Result<CsvRecordIndex> CsvRecordIndex::Build(std::string_view content,
                                             const Schema& schema,
                                             bool has_header) {
  trace::Span span("ingest.index_records");
  CsvRecordIndex index(content, schema);
  std::vector<uint64_t>& offsets = index.offsets_;
  const char* const begin = content.data();
  const char* const end = begin + content.size();
  if (std::memchr(begin, '"', content.size()) == nullptr &&
      std::memchr(begin, '\r', content.size()) == nullptr) {
    // No quotes and no carriage returns: every record is one line ending
    // at \n, and every comma separates two fields.
    uint64_t line = 0;
    for (const char* p = begin; p < end;) {
      const char* eol = static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (eol == nullptr) eol = end;
      ++line;
      if (!(line == 1 && has_header) && eol != p) {
        const size_t fields = 1 + CountByte(p, eol, ',');
        if (fields != schema.num_columns()) {
          return FieldCountError(line, fields, schema);
        }
        offsets.push_back(static_cast<uint64_t>(p - begin));
      }
      p = eol + 1;
    }
  } else {
    RecordReader reader(content);
    uint64_t line = 0;
    size_t start = 0;
    bool any_content = false;
    Status error;
    while (reader.Next(&any_content, &error)) {
      ++line;
      if (!(line == 1 && has_header) && any_content) {
        if (reader.num_fields() != schema.num_columns()) {
          return FieldCountError(line, reader.num_fields(), schema);
        }
        offsets.push_back(start);
      }
      start = reader.pos();
    }
    CFEST_RETURN_NOT_OK(error);
  }
  BytesScannedCounter()->Add(content.size());
  return index;
}

Result<std::unique_ptr<PartialTable>> CsvRecordIndex::Parse(
    const std::vector<RowId>& ids) const {
  trace::Span span("ingest.parse_rows");
  CFEST_RETURN_NOT_OK(PartialTable::CheckIds(ids, offsets_.size()));
  const uint32_t width = schema_.row_width();
  std::string rows(ids.size() * width, ' ');
  RecordReader reader(content_);
  std::string scratch;
  bool any_content = false;
  Status error;
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint64_t offset = offsets_[static_cast<size_t>(ids[i])];
    reader.Seek(static_cast<size_t>(offset));
    // Build accepted the record's structure, so it reads back whole.
    if (!reader.Next(&any_content, &error)) return error;
    Status st =
        EncodeRecord(reader, schema_, &scratch, rows.data() + i * width);
    if (!st.ok()) return AtLine(st, LineOf(offset));
  }
  RowsParsedCounter()->Add(ids.size());
  return PartialTable::Make(schema_, offsets_.size(), ids, std::move(rows));
}

uint64_t CsvRecordIndex::LineOf(uint64_t offset) const {
  RecordReader reader(content_);
  uint64_t line = 1;
  bool any_content = false;
  Status error;
  while (reader.pos() < offset && reader.Next(&any_content, &error)) ++line;
  return line;
}

Result<std::string> ReadFileContents(const std::string& path) {
  trace::Span span("ingest.read_file");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  // A regular file is read straight into a buffer of its size; the spare
  // byte lets the last read see end of file without growing the buffer.
  struct stat info {};
  const bool regular = ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
  std::string content(
      regular ? static_cast<size_t>(info.st_size) + 1 : size_t{1} << 16,
      '\0');
  size_t filled = 0;
  while (true) {
    if (filled == content.size()) content.resize(2 * content.size());
    const ssize_t got =
        ::read(fd, content.data() + filled, content.size() - filled);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::InvalidArgument("cannot read " + path + ": " +
                                     std::strerror(errno));
    }
    filled += static_cast<size_t>(got);
  }
  content.resize(filled);
  return content;
}

std::string WriteCsv(const Table& table, bool header) {
  std::string out;
  const Schema& schema = table.schema();
  if (header) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out += ",";
      AppendCsvField(schema.column(c).name, &out);
    }
    out += "\n";
  }
  for (RowId id = 0; id < table.num_rows(); ++id) {
    Result<Row> row = table.DecodeRow(id);
    // Rows in a built table always decode.
    const Row& r = *row;
    for (size_t c = 0; c < r.size(); ++c) {
      if (c > 0) out += ",";
      const std::string cell = r[c].ToString();
      if (r.size() == 1 && cell.empty()) {
        out += "\"\"";  // disambiguate a single empty field from a blank line
      } else {
        AppendCsvField(cell, &out);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace cfest
