// Tests for CSV import/export, whole-file reads and the textual schema
// notation used by the CLI tool.
//
// The loader is pinned against a reference: the straightforward
// field-by-field parser (one std::string per field, one Value per cell,
// rows encoded through TableBuilder::Append) that LoadCsv replaced. A
// seeded differential test feeds both thousands of random CSV texts and
// requires the same verdict, the same Status and byte-identical rows.
//
// The sampled loader (CsvRecordIndex) is pinned against LoadCsv the same
// way: on the same random texts and seeded draws it must report LoadCsv's
// first structural error, else LoadCsv's first cell error among the
// records it parses, else exactly LoadCsv's bytes for every parsed row.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "sampling/sampler.h"
#include "storage/csv.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

// ---------------------------------------------------------------------------
// Reference loader
// ---------------------------------------------------------------------------

namespace reference {

/// Splits one CSV record starting at *pos; advances *pos past the record's
/// trailing newline. Returns false at end of input. *any_content reports
/// whether the record contained any characters or quoting (so a genuinely
/// blank line is distinguishable from a single quoted-empty field "").
bool NextRecord(const std::string& text, size_t* pos,
                std::vector<std::string>* fields, bool* any_content,
                Status* error) {
  fields->clear();
  *any_content = false;
  if (*pos >= text.size()) return false;
  std::string field;
  bool in_quotes = false;
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (in_quotes) {
      if (c == '"') {
        if (*pos + 1 < text.size() && text[*pos + 1] == '"') {
          field.push_back('"');
          *pos += 2;
          continue;
        }
        in_quotes = false;
        ++*pos;
        continue;
      }
      field.push_back(c);
      ++*pos;
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        *error = Status::InvalidArgument(
            "quote inside unquoted CSV field near offset " +
            std::to_string(*pos));
        return false;
      }
      in_quotes = true;
      *any_content = true;
      ++*pos;
      continue;
    }
    if (c == ',') {
      fields->push_back(std::move(field));
      field.clear();
      *any_content = true;
      ++*pos;
      continue;
    }
    if (c == '\n' || c == '\r') {
      if (c == '\r' && *pos + 1 < text.size() && text[*pos + 1] == '\n') {
        ++*pos;
      }
      ++*pos;
      fields->push_back(std::move(field));
      return true;
    }
    field.push_back(c);
    *any_content = true;
    ++*pos;
  }
  if (in_quotes) {
    *error = Status::InvalidArgument("unterminated quoted CSV field");
    return false;
  }
  fields->push_back(std::move(field));
  return true;
}

Result<Value> ParseCell(const std::string& field, const Column& column,
                        size_t line) {
  const DataType& type = column.type;
  if (type.IsString()) {
    if (field.size() > type.FixedWidth()) {
      return Status::OutOfRange("line " + std::to_string(line) + ": value '" +
                                field + "' exceeds " + type.ToString());
    }
    return Value::Str(field);
  }
  if (field.empty()) {
    return Status::InvalidArgument("line " + std::to_string(line) +
                                   ": empty integer cell");
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("line " + std::to_string(line) +
                                   ": not an integer: '" + field + "'");
  }
  const uint32_t bits = 8 * type.FixedWidth();
  const bool fits = bits >= 64 || (v >= -(1ll << (bits - 1)) &&
                                   v <= (1ll << (bits - 1)) - 1);
  if (errno == ERANGE || !fits) {
    return Status::OutOfRange("line " + std::to_string(line) +
                              ": integer '" + field + "' out of range for " +
                              type.ToString() + " (column " + column.name +
                              ")");
  }
  return Value::Int(v);
}

Result<std::unique_ptr<Table>> LoadCsv(const std::string& content,
                                       const Schema& schema,
                                       bool has_header) {
  TableBuilder builder(schema);
  size_t pos = 0;
  size_t line = 0;
  std::vector<std::string> fields;
  bool any_content = false;
  Status error;
  Row row(schema.num_columns());
  while (NextRecord(content, &pos, &fields, &any_content, &error)) {
    ++line;
    if (line == 1 && has_header) continue;
    if (!any_content) continue;
    if (fields.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line) + ": " +
          std::to_string(fields.size()) + " fields, schema has " +
          std::to_string(schema.num_columns()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      CFEST_ASSIGN_OR_RETURN(row[c],
                             ParseCell(fields[c], schema.column(c), line));
    }
    CFEST_RETURN_NOT_OK(builder.Append(row));
  }
  CFEST_RETURN_NOT_OK(error);
  return builder.Finish();
}

}  // namespace reference

TEST(SchemaSpecTest, ParsesAllTypes) {
  Result<Schema> schema = ParseSchemaSpec(
      "a:int32,b:int64,c:date,d:decimal,e:char(20),f:varchar(44)");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->num_columns(), 6u);
  EXPECT_EQ(schema->column(0).type, Int32Type());
  EXPECT_EQ(schema->column(1).type, Int64Type());
  EXPECT_EQ(schema->column(2).type, DateType());
  EXPECT_EQ(schema->column(3).type, DecimalType());
  EXPECT_EQ(schema->column(4).type, CharType(20));
  EXPECT_EQ(schema->column(5).type, VarcharType(44));
}

TEST(SchemaSpecTest, RoundTripsThroughSchemaToSpec) {
  const std::string spec = "id:int64,name:char(12),note:varchar(80)";
  Result<Schema> schema = ParseSchemaSpec(spec);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(SchemaToSpec(*schema), spec);
}

TEST(SchemaSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("noname").ok());
  EXPECT_FALSE(ParseSchemaSpec(":int64").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:int128").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:char()").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:char(0)").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:char(xyz)").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:int64,a:int64").ok());  // duplicate name
}

class CsvTest : public ::testing::Test {
 protected:
  Schema schema_ = std::move(ParseSchemaSpec("id:int64,city:char(16)"))
                       .ValueOrDie();
};

TEST_F(CsvTest, ParsesPlainRows) {
  auto table = LoadCsv("id,city\n1,berlin\n2,paris\n", schema_);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->DecodeRow(0)->at(0).AsInt(), 1);
  EXPECT_EQ((*table)->DecodeRow(1)->at(1).AsString(), "paris");
}

TEST_F(CsvTest, HeaderToggle) {
  auto with = LoadCsv("id,city\n1,x\n", schema_, /*has_header=*/true);
  auto without = LoadCsv("1,x\n", schema_, /*has_header=*/false);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ((*with)->num_rows(), 1u);
  EXPECT_EQ((*without)->num_rows(), 1u);
}

TEST_F(CsvTest, QuotedFieldsWithCommasQuotesNewlines) {
  const std::string csv =
      "id,city\n"
      "1,\"a,b\"\n"
      "2,\"say \"\"hi\"\"\"\n"
      "3,\"line1\nline2\"\n";
  auto table = LoadCsv(csv, schema_);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->num_rows(), 3u);
  EXPECT_EQ((*table)->DecodeRow(0)->at(1).AsString(), "a,b");
  EXPECT_EQ((*table)->DecodeRow(1)->at(1).AsString(), "say \"hi\"");
  EXPECT_EQ((*table)->DecodeRow(2)->at(1).AsString(), "line1\nline2");
}

TEST_F(CsvTest, CrLfAndTrailingNewlineHandling) {
  auto table = LoadCsv("id,city\r\n1,x\r\n2,y", schema_);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
}

TEST_F(CsvTest, NegativeIntegers) {
  auto table = LoadCsv("id,city\n-42,x\n", schema_);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->DecodeRow(0)->at(0).AsInt(), -42);
}

TEST_F(CsvTest, RejectsBadRows) {
  // Wrong arity.
  EXPECT_FALSE(LoadCsv("id,city\n1\n", schema_).ok());
  EXPECT_FALSE(LoadCsv("id,city\n1,x,extra\n", schema_).ok());
  // Non-integer.
  EXPECT_FALSE(LoadCsv("id,city\nabc,x\n", schema_).ok());
  EXPECT_FALSE(LoadCsv("id,city\n1.5,x\n", schema_).ok());
  // Empty integer.
  EXPECT_FALSE(LoadCsv("id,city\n,x\n", schema_).ok());
  // Oversized string for char(16).
  EXPECT_FALSE(
      LoadCsv("id,city\n1,aaaaaaaaaaaaaaaaaaaaaaaaa\n", schema_).ok());
  // Unterminated quote.
  EXPECT_FALSE(LoadCsv("id,city\n1,\"open\n", schema_).ok());
  // Quote mid-field.
  EXPECT_FALSE(LoadCsv("id,city\n1,ab\"c\n", schema_).ok());
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  TableBuilder builder(schema_);
  ASSERT_TRUE(builder.Append({Value::Int(7), Value::Str("a,b \"q\"")}).ok());
  ASSERT_TRUE(builder.Append({Value::Int(-1), Value::Str("plain")}).ok());
  auto table = builder.Finish();
  const std::string csv = WriteCsv(*table);
  auto reloaded = LoadCsv(csv, schema_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ASSERT_EQ((*reloaded)->num_rows(), 2u);
  for (RowId id = 0; id < 2; ++id) {
    EXPECT_EQ(*(*reloaded)->DecodeRow(id), *table->DecodeRow(id));
  }
}

TEST_F(CsvTest, BlankLinesSkipped) {
  auto table = LoadCsv("id,city\n1,x\n\n2,y\n", schema_);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
}

TEST(CsvSingleColumnTest, EmptyFieldDistinctFromBlankLine) {
  Schema schema = std::move(ParseSchemaSpec("s:char(4)")).ValueOrDie();
  TableBuilder builder(schema);
  ASSERT_TRUE(builder.Append({Value::Str("")}).ok());
  ASSERT_TRUE(builder.Append({Value::Str("x")}).ok());
  auto table = builder.Finish();
  const std::string csv = WriteCsv(*table);
  // The empty value must be written as "" so it survives the reload.
  EXPECT_NE(csv.find("\"\""), std::string::npos);
  auto reloaded = LoadCsv(csv, schema);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ((*reloaded)->num_rows(), 2u);
  EXPECT_EQ((*reloaded)->DecodeRow(0)->at(0).AsString(), "");
}

TEST_F(CsvTest, EmptyInputYieldsEmptyTable) {
  auto table = LoadCsv("", schema_);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 0u);
  auto header_only = LoadCsv("id,city\n", schema_);
  ASSERT_TRUE(header_only.ok());
  EXPECT_EQ((*header_only)->num_rows(), 0u);
}

// ---------------------------------------------------------------------------
// Integer range
// ---------------------------------------------------------------------------

TEST(CsvIntegerRangeTest, Int64OverflowIsRejectedNotClamped) {
  Schema schema = std::move(ParseSchemaSpec("id:int64,v:int64")).ValueOrDie();
  auto high = LoadCsv("id,v\n1,2\n3,99999999999999999999\n", schema);
  ASSERT_FALSE(high.ok());
  EXPECT_TRUE(high.status().IsOutOfRange()) << high.status();
  EXPECT_EQ(high.status().message(),
            "line 3: integer '99999999999999999999' out of range for int64 "
            "(column v)");
  auto low = LoadCsv("id,v\n-9223372036854775809,0\n", schema);
  ASSERT_FALSE(low.ok());
  EXPECT_EQ(low.status().message(),
            "line 2: integer '-9223372036854775809' out of range for int64 "
            "(column id)");
  // Leading whitespace and a sign are part of the accepted syntax, so an
  // overflow behind them is rejected the same way.
  auto spaced = LoadCsv("id,v\n1,\" +99999999999999999999\"\n", schema);
  ASSERT_FALSE(spaced.ok());
  EXPECT_TRUE(spaced.status().IsOutOfRange()) << spaced.status();
}

TEST(CsvIntegerRangeTest, Int64BoundsLoadExactly) {
  Schema schema = std::move(ParseSchemaSpec("v:int64")).ValueOrDie();
  auto table = LoadCsv(
      "v\n9223372036854775807\n-9223372036854775808\n"
      "+0000000000000000000000042\n",
      schema);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->num_rows(), 3u);
  EXPECT_EQ((*table)->DecodeRow(0)->at(0).AsInt(), INT64_MAX);
  EXPECT_EQ((*table)->DecodeRow(1)->at(0).AsInt(), INT64_MIN);
  EXPECT_EQ((*table)->DecodeRow(2)->at(0).AsInt(), 42);
}

TEST(CsvIntegerRangeTest, NarrowColumnsNameLineAndColumn) {
  Schema schema = std::move(ParseSchemaSpec("k:int64,v:int32,d:date"))
                      .ValueOrDie();
  auto ok = LoadCsv("k,v,d\n1,2147483647,-2147483648\n", schema);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)->DecodeRow(0)->at(1).AsInt(), 2147483647);
  EXPECT_EQ((*ok)->DecodeRow(0)->at(2).AsInt(), -2147483648ll);

  auto above = LoadCsv("k,v,d\n1,2,3\n\n4,2147483648,5\n", schema);
  ASSERT_FALSE(above.ok());
  EXPECT_TRUE(above.status().IsOutOfRange()) << above.status();
  EXPECT_EQ(above.status().message(),
            "line 4: integer '2147483648' out of range for int32 (column v)");
  // A value that saturates int64 is reported as written, not clamped.
  auto saturated =
      LoadCsv("k,v,d\n1,99999999999999999999,5\n", schema);
  ASSERT_FALSE(saturated.ok());
  EXPECT_EQ(saturated.status().message(),
            "line 2: integer '99999999999999999999' out of range for int32 "
            "(column v)");
  auto date = LoadCsv("k,v,d\n1,2,-2147483649\n", schema);
  ASSERT_FALSE(date.ok());
  EXPECT_EQ(date.status().message(),
            "line 2: integer '-2147483649' out of range for date (column d)");
}

// ---------------------------------------------------------------------------
// Ingest telemetry
// ---------------------------------------------------------------------------

TEST_F(CsvTest, CountsBytesScannedAndRowsParsedPerLoad) {
  metrics::MetricRegistry& registry = metrics::MetricRegistry::Global();
  const std::string csv = "id,city\n1,berlin\n\n2,\"a,b\"\n3,paris";
  const uint64_t bytes_before =
      registry.Snapshot().CounterValue("cfest.ingest.bytes_scanned");
  const uint64_t rows_before =
      registry.Snapshot().CounterValue("cfest.ingest.rows_parsed");
  trace::Reset();
  trace::SetEnabled(true);
  auto table = LoadCsv(csv, schema_);
  trace::SetEnabled(false);
  ASSERT_TRUE(table.ok()) << table.status();
  const metrics::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.CounterValue("cfest.ingest.rows_parsed") - rows_before,
            (*table)->num_rows());
  EXPECT_EQ(after.CounterValue("cfest.ingest.bytes_scanned") - bytes_before,
            csv.size());
  size_t spans = 0;
  for (const trace::SpanRecord& record : trace::CollectRecords()) {
    if (std::string(record.name) == "ingest.load_csv") ++spans;
  }
  EXPECT_EQ(spans, 1u);
  trace::Reset();
}

// ---------------------------------------------------------------------------
// Whole-file reads
// ---------------------------------------------------------------------------

TEST(ReadFileContentsTest, RoundTripsBytesExactly) {
  const std::string path = ::testing::TempDir() + "csv_test_read_file.bin";
  std::string bytes;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 300000; ++i) bytes.push_back(static_cast<char>(rng()));
  bytes += std::string("\0\r\n\"end", 7);
  for (const std::string& content : {bytes, std::string()}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(content.data(), static_cast<std::streamsize>(content.size()));
    }
    Result<std::string> read = ReadFileContents(path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, content);
  }
  std::filesystem::remove(path);
}

TEST(ReadFileContentsTest, FailsOnMissingFileAndDirectory) {
  const std::string dir = ::testing::TempDir() + "csv_test_read_dir";
  std::filesystem::create_directories(dir);
  Result<std::string> directory = ReadFileContents(dir);
  ASSERT_FALSE(directory.ok());
  EXPECT_TRUE(directory.status().IsInvalidArgument()) << directory.status();
  Result<std::string> missing = ReadFileContents(dir + "/no_such_file.csv");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Differential fuzz against the reference loader
// ---------------------------------------------------------------------------

/// Builds random CSV texts over a random schema: mostly well-formed, with
/// seeded doses of every construct the grammar has to accept or reject.
class CsvTextGenerator {
 public:
  explicit CsvTextGenerator(uint64_t seed) : rng_(seed) {}

  Schema RandomSchema() {
    static const char* kTypes[] = {"int64", "int32",   "date",
                                   "decimal", "char(4)", "varchar(9)",
                                   "char(1)"};
    const size_t columns = 1 + Uniform(4);
    std::string spec;
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) spec += ",";
      spec += 'c';
      spec += std::to_string(c);
      spec += ':';
      spec += kTypes[Uniform(7)];
    }
    return std::move(ParseSchemaSpec(spec)).ValueOrDie();
  }

  /// One CSV text for `schema`. `noise` is the chance that a cell or line
  /// is drawn from the malformed menu.
  std::string RandomText(const Schema& schema, bool header, double noise) {
    std::string text;
    const std::string eol = RandomEol();
    const bool mixed_eol = Chance(0.2);
    if (header) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (c > 0) text += ",";
        text += schema.column(c).name;
      }
      text += eol;
    }
    const size_t records = Uniform(7);
    for (size_t r = 0; r < records; ++r) {
      if (Chance(0.1)) {
        text += mixed_eol ? RandomEol() : eol;  // blank line
        continue;
      }
      size_t arity = schema.num_columns();
      if (Chance(noise / 2)) arity = Chance(0.5) ? arity + 1 : arity - 1;
      for (size_t c = 0; c < arity; ++c) {
        if (c > 0) text += ",";
        const DataType type =
            schema.column(std::min(c, schema.num_columns() - 1)).type;
        text += type.IsString() ? StringCell(type.FixedWidth(), noise)
                                : IntegerCell(type.FixedWidth(), noise);
      }
      if (r + 1 < records || Chance(0.7)) {
        text += mixed_eol ? RandomEol() : eol;
      }
    }
    if (Chance(noise / 4)) text += "\"unterminated";
    return text;
  }

 private:
  size_t Uniform(size_t n) { return n == 0 ? 0 : rng_() % n; }
  bool Chance(double p) {
    return static_cast<double>(rng_() >> 11) * 0x1.0p-53 < p;
  }

  std::string RandomEol() {
    static const char* kEols[] = {"\n", "\r\n", "\r"};
    return kEols[Uniform(3)];
  }

  static std::string Quote(const std::string& raw) {
    std::string out = "\"";
    for (char c : raw) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  std::string StringCell(uint32_t width, double noise) {
    static const char kAlphabet[] = {'a', 'b', 'Z', ' ', ',', '"',
                                     '\n', '\r', '\0', '7', '-'};
    size_t length = Uniform(width + 1);
    if (Chance(noise)) length = width + 1 + Uniform(3);  // over-wide
    std::string raw;
    for (size_t i = 0; i < length; ++i) {
      raw.push_back(kAlphabet[Uniform(sizeof(kAlphabet))]);
    }
    bool special = false;
    for (char c : raw) {
      special |= c == ',' || c == '"' || c == '\n' || c == '\r';
    }
    if (Chance(noise)) {
      // Malformed or unusual quoting, taken as is.
      switch (Uniform(4)) {
        case 0:
          return "x" + raw + "\"";  // quote inside an unquoted field
        case 1:
          return Quote(raw) + "tail";  // text after the closing quote
        case 2:
          return Quote(raw) + "\"";  // stray quote after a quoted section
        default:
          return "\"" + raw;  // unterminated
      }
    }
    if (special || raw.empty() || Chance(0.3)) return Quote(raw);
    return raw;
  }

  std::string IntegerCell(uint32_t width, double noise) {
    const int64_t bound = width < 8 ? (int64_t{1} << (8 * width - 1)) : 0;
    std::string text;
    if (Chance(noise)) {
      static const char* kOdd[] = {
          "",     "abc",  "1.5",  "12 ",   " ",  "+",   "-",    "--1",
          "0x10", "1e3",  " \t42", "+17",  "-0", "007", "\n9",  "\r\n-3",
          "99999999999999999999", "-99999999999999999999",
          "9223372036854775808",  "-9223372036854775809",
          "00000000000000000000000000012", "+000000000000000000000"};
      text = kOdd[Uniform(sizeof(kOdd) / sizeof(kOdd[0]))];
      if (Chance(0.15)) text = std::string("12\0", 3) + "34";  // NUL ends it
      if (Chance(0.05)) text = std::string("\0", 1);
      if (width < 8 && Chance(0.2)) {
        // One past a narrow column's range.
        text = std::to_string(Chance(0.5) ? bound : -bound - 1);
      }
    } else {
      switch (Uniform(5)) {
        case 0:
          text = std::to_string(static_cast<int64_t>(rng_() % 1000) - 500);
          break;
        case 1:
          text = width < 8 ? std::to_string(Chance(0.5) ? bound - 1 : -bound)
                           : std::to_string(Chance(0.5) ? INT64_MAX
                                                        : INT64_MIN);
          break;
        case 2:
          // Accepted forms off the plain-digits path.
          text = std::string(Chance(0.5) ? " " : "\t") +
                 (Chance(0.5) ? "-" : "+") + "000000000000000000" +
                 std::to_string(rng_() % 1000);
          break;
        case 3:
          text = std::to_string(static_cast<int64_t>(rng_()) >>
                                (width < 8 ? 33 : Uniform(63)));
          break;
        default:
          text = (Chance(0.5) ? "+" : "") + std::to_string(rng_() % 100000);
          break;
      }
    }
    const bool special = text.find_first_of(",\"\n\r") != std::string::npos;
    if ((special || text.empty()) ? !Chance(noise / 2) : Chance(0.1)) {
      return Quote(text);
    }
    return text;
  }

  std::mt19937_64 rng_;
};

void ExpectSameLoad(const std::string& text, const Schema& schema,
                    bool header) {
  auto expected = reference::LoadCsv(text, schema, header);
  auto actual = LoadCsv(text, schema, header);
  ASSERT_EQ(actual.ok(), expected.ok())
      << "text: " << ::testing::PrintToString(text) << "\nreference: "
      << expected.status() << "\nactual: " << actual.status();
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code());
    EXPECT_EQ(actual.status().message(), expected.status().message())
        << "text: " << ::testing::PrintToString(text);
    return;
  }
  const Table& want = **expected;
  const Table& got = **actual;
  ASSERT_EQ(got.num_rows(), want.num_rows())
      << "text: " << ::testing::PrintToString(text);
  for (RowId id = 0; id < want.num_rows(); ++id) {
    ASSERT_EQ(got.row(id).ToString(), want.row(id).ToString())
        << "row " << id << " of " << ::testing::PrintToString(text);
  }
}

TEST(CsvDifferentialTest, MatchesReferenceOnRandomTexts) {
  CsvTextGenerator generator(20240611);
  size_t accepted = 0;
  constexpr int kTexts = 6000;
  for (int i = 0; i < kTexts; ++i) {
    const Schema schema = generator.RandomSchema();
    const bool header = i % 3 != 0;
    const double noise = i % 4 == 0 ? 0.0 : 0.05 * (i % 4);
    const std::string text = generator.RandomText(schema, header, noise);
    ExpectSameLoad(text, schema, header);
    if (::testing::Test::HasFatalFailure()) return;
    if (LoadCsv(text, schema, header).ok()) ++accepted;
  }
  // Both verdicts must be well represented, or the comparison is one-sided.
  EXPECT_GT(accepted, static_cast<size_t>(kTexts) / 4);
  EXPECT_LT(accepted, static_cast<size_t>(kTexts) * 3 / 4);
}

TEST(CsvDifferentialTest, MatchesReferenceOnEdgeCases) {
  Schema schema = std::move(ParseSchemaSpec("a:int32,b:char(3)")).ValueOrDie();
  const std::vector<std::string> texts = {
      "",         "\n",        "\r\n\r\n",  "a,b",       "a,b\n",
      "a,b\r",     "1,x",       "1,x\r\n\n", "\"\"",       "1,\"\"",
      "1,\"\"\"\"", "1,\"a\"b",   "1,\"a\"\"", "1,\"a\"b\"",  "1,a\"",
      "\"1\",\"\"\"\"\"", "1,\"\n\"", "1,\"\r\n\"", " 1,x",      "1 ,x",
      "\"\n1\",x",  "+,x",       "-,x",       "1,abcd",    "1,\"a,b\"",
      "1,x,",      ",",         "1",         "1,\"",       "\"",
      "2147483648,x", std::string("1\0,x", 4), std::string("\0,x", 3),
      std::string("1,\0\0", 4)};
  for (const std::string& text : texts) {
    for (bool header : {false, true}) {
      ExpectSameLoad(text, schema, header);
      ExpectSameLoad("h\n" + text, schema, header);
    }
  }
}

// ---------------------------------------------------------------------------
// Sampled ingest: CsvRecordIndex against LoadCsv
// ---------------------------------------------------------------------------

/// `schema` with every column a varchar(65535). LoadCsv under it checks
/// the structure of every record (boundaries, quoting, field count) and no
/// cell content, so its verdict is the text's first structural error.
Schema StructureOnly(const Schema& schema) {
  std::vector<Column> columns;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    columns.push_back(Column{schema.column(c).name, VarcharType(0xFFFF)});
  }
  return std::move(Schema::Make(std::move(columns))).ValueOrDie();
}

/// `text` (structurally valid) with every data record whose id is not in
/// `keep` (ascending) replaced by a one-line record of valid cells, line
/// ending kept. Record numbering is unchanged, so a full LoadCsv of the
/// result fails exactly on the first cell error among the kept records.
std::string MaskUnparsedRecords(const std::string& text, const Schema& schema,
                                bool header, const std::vector<RowId>& keep) {
  std::string valid;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) valid += ",";
    valid += schema.column(c).type.IsString() ? "\"\"" : "0";
  }
  std::string out;
  size_t pos = 0;
  uint64_t line = 0;
  RowId id = 0;
  std::vector<std::string> fields;
  bool any_content = false;
  Status error;
  while (true) {
    const size_t start = pos;
    if (!reference::NextRecord(text, &pos, &fields, &any_content, &error)) {
      break;
    }
    const std::string raw = text.substr(start, pos - start);
    ++line;
    if ((line == 1 && header) || !any_content ||
        std::binary_search(keep.begin(), keep.end(), id++)) {
      out += raw;
      continue;
    }
    size_t body = raw.size();
    if (raw.ends_with("\r\n")) {
      body -= 2;
    } else if (raw.ends_with("\n") || raw.ends_with("\r")) {
      body -= 1;
    }
    out += valid + raw.substr(body);
  }
  return out;
}

/// How a sampled load of one text ended.
enum class SampledOutcome { kStructureError, kCellError, kLoaded };

/// Indexes `text`, parses the distinct ids of a seeded with-replacement
/// draw, and checks verdict, message and row bytes against LoadCsv.
void ExpectSampledLoadMatches(const std::string& text, const Schema& schema,
                              bool header, uint64_t seed,
                              SampledOutcome* outcome = nullptr) {
  SampledOutcome ignored;
  if (outcome == nullptr) outcome = &ignored;
  Result<CsvRecordIndex> index = CsvRecordIndex::Build(text, schema, header);
  auto structure = LoadCsv(text, StructureOnly(schema), header);
  ASSERT_EQ(index.ok(), structure.ok())
      << "text: " << ::testing::PrintToString(text)
      << "\nstructure: " << structure.status()
      << "\nindex: " << index.status();
  if (!structure.ok()) {
    *outcome = SampledOutcome::kStructureError;
    EXPECT_EQ(index.status().code(), structure.status().code());
    EXPECT_EQ(index.status().message(), structure.status().message())
        << "text: " << ::testing::PrintToString(text);
    return;
  }
  const uint64_t n = (*structure)->num_rows();
  ASSERT_EQ(index->num_records(), n)
      << "text: " << ::testing::PrintToString(text);

  const uint64_t draws = n == 0 ? 0 : seed % (2 * n + 1);
  const std::vector<RowId> ids = DistinctDrawnIds(seed, n, draws);
  auto expected = LoadCsv(MaskUnparsedRecords(text, schema, header, ids),
                          schema, header);
  auto actual = index->Parse(ids);
  ASSERT_EQ(actual.ok(), expected.ok())
      << "text: " << ::testing::PrintToString(text) << "\nexpected: "
      << expected.status() << "\nactual: " << actual.status();
  if (!expected.ok()) {
    *outcome = SampledOutcome::kCellError;
    EXPECT_EQ(actual.status().code(), expected.status().code());
    EXPECT_EQ(actual.status().message(), expected.status().message())
        << "text: " << ::testing::PrintToString(text);
    return;
  }
  *outcome = SampledOutcome::kLoaded;
  const PartialTable& got = **actual;
  ASSERT_EQ(got.num_rows(), n);
  ASSERT_EQ(got.loaded_rows(), ids.size());
  auto full = LoadCsv(text, schema, header);
  for (RowId id : ids) {
    ASSERT_EQ(got.row(id).ToString(), (*expected)->row(id).ToString())
        << "row " << id << " of " << ::testing::PrintToString(text);
    if (full.ok()) {
      ASSERT_EQ(got.row(id).ToString(), (*full)->row(id).ToString());
    }
  }
  for (RowId id = 0; id < n; ++id) {
    if (std::binary_search(ids.begin(), ids.end(), id)) continue;
    EXPECT_FALSE(TableView::Make(got, {id}).ok()) << "row " << id;
  }
}

/// The text with no quote and no carriage return (quotes become letters,
/// \r becomes \n), so the index takes its memchr path.
std::string WithoutQuotesOrCarriageReturns(std::string text) {
  for (char& c : text) {
    if (c == '"') c = 'q';
    if (c == '\r') c = '\n';
  }
  return text;
}

TEST(CsvSampledLoadTest, MatchesLoadCsvOnRandomTextsAndDraws) {
  CsvTextGenerator generator(977);
  std::mt19937_64 seeds(5);
  constexpr int kTexts = 3000;
  std::map<SampledOutcome, int> outcomes;
  for (int i = 0; i < kTexts; ++i) {
    const Schema schema = generator.RandomSchema();
    const bool header = i % 3 != 0;
    const double noise = i % 4 == 0 ? 0.0 : 0.05 * (i % 4);
    const std::string text = generator.RandomText(schema, header, noise);
    for (const std::string& variant :
         {text, WithoutQuotesOrCarriageReturns(text)}) {
      SampledOutcome outcome;
      ExpectSampledLoadMatches(variant, schema, header, seeds(), &outcome);
      if (::testing::Test::HasFatalFailure()) return;
      ++outcomes[outcome];
    }
  }
  // Every verdict must be well represented, or the comparison is one-sided.
  for (SampledOutcome outcome :
       {SampledOutcome::kStructureError, SampledOutcome::kCellError,
        SampledOutcome::kLoaded}) {
    EXPECT_GT(outcomes[outcome], kTexts / 10) << static_cast<int>(outcome);
  }
}

TEST(CsvSampledLoadTest, MatchesLoadCsvOnEdgeCases) {
  Schema schema = std::move(ParseSchemaSpec("a:int32,b:char(3)")).ValueOrDie();
  const std::vector<std::string> texts = {
      "",           "\n",           "\r\n\r\n",
      "1,x\n\n2,y",   "1,x\r2,y\r",    "1,\"\"\n2,y",
      "1,\"a\nb\"\n2,y", "1,\"\r\n\"\r\n", "x,y\n2,y",
      "1,abcd\n2,y",  "1,x\n2,y,z",    "1,x\n\"",
      "1,x\n2,a\"",   "\"\"\n1,x",     "1,x\n\n",
      "\n\n1,x\n",    "1,x\n2147483648,y\n3,z",
      "1,x\n+,y\n\n3,z\n"};
  for (const std::string& text : texts) {
    for (bool header : {false, true}) {
      for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        ExpectSampledLoadMatches(text, schema, header, seed);
        ExpectSampledLoadMatches("h\n" + text, schema, header, seed);
      }
    }
  }
}

TEST(CsvSampledLoadTest, StructureIsCheckedEverywhereCellsOnlyWhereParsed) {
  Schema schema =
      std::move(ParseSchemaSpec("id:int64,city:char(6)")).ValueOrDie();
  // Record 1 (line 3) has a bad integer; record 3 (line 5) is ragged. A
  // full load stops at the cell error, the index at the structural one.
  const std::string ragged = "id,city\n1,a\nx,b\n3,c\n4,d,extra\n";
  EXPECT_EQ(LoadCsv(ragged, schema).status().message(),
            "line 3: not an integer: 'x'");
  Result<CsvRecordIndex> index = CsvRecordIndex::Build(ragged, schema);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().message(), "line 5: 3 fields, schema has 2");

  const std::string bad_cell = "id,city\n1,a\nx,b\n\n3,\"c\nd\"\n4,toolong\n";
  Result<CsvRecordIndex> cells = CsvRecordIndex::Build(bad_cell, schema);
  ASSERT_TRUE(cells.ok()) << cells.status();
  ASSERT_EQ(cells->num_records(), 4u);
  // The bad cells are in records 1 and 3; a sample that skips them loads.
  auto skipped = cells->Parse({0, 2});
  ASSERT_TRUE(skipped.ok()) << skipped.status();
  EXPECT_EQ((*skipped)->num_rows(), 4u);
  EXPECT_EQ((*skipped)->loaded_rows(), 2u);
  EXPECT_EQ((*(*skipped)->DecodeRow(2))[1].ToString(), "c\nd");
  // The first cell error among parsed records wins, named as LoadCsv
  // names it, its line counted past the blank line and the quoted break.
  auto parsed = cells->Parse({0, 1, 3});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            LoadCsv(bad_cell, schema).status().message());
  auto last = cells->Parse({2, 3});
  ASSERT_FALSE(last.ok());
  EXPECT_TRUE(last.status().IsOutOfRange()) << last.status();
  EXPECT_EQ(last.status().message(), "line 6: value 'toolong' exceeds char(6)");

  // Ids must be ascending, distinct and in range.
  EXPECT_FALSE(cells->Parse({2, 1}).ok());
  EXPECT_FALSE(cells->Parse({1, 1}).ok());
  EXPECT_FALSE(cells->Parse({4}).ok());
}

TEST(CsvSampledLoadTest, UnloadedRowsAreRefusedNotRead) {
  Schema schema = std::move(ParseSchemaSpec("id:int64")).ValueOrDie();
  auto index = CsvRecordIndex::Build("id\n10\n11\n12\n13\n", schema);
  ASSERT_TRUE(index.ok());
  auto table = index->Parse({1, 3});
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(TableView::Make(**table, {3, 1, 3}).ok());
  auto view = TableView::Make(**table, {1, 2});
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsOutOfRange()) << view.status();
  EXPECT_FALSE(TableView::Make(**table, {4}).ok());
  EXPECT_FALSE(MaterializeSample(**table, {0}).ok());
  EXPECT_FALSE((*table)->AppendEncodedRow(Slice((*table)->row(1))).ok());
}

TEST(CsvSampledLoadTest, CountsBytesScannedAndOnlyTheRowsParsed) {
  Schema schema =
      std::move(ParseSchemaSpec("id:int64,city:char(6)")).ValueOrDie();
  metrics::MetricRegistry& registry = metrics::MetricRegistry::Global();
  const std::string csv = "id,city\n1,berlin\n\n2,\"a,b\"\n3,paris\n4,rome";
  const metrics::MetricsSnapshot before = registry.Snapshot();
  trace::Reset();
  trace::SetEnabled(true);
  auto index = CsvRecordIndex::Build(csv, schema);
  ASSERT_TRUE(index.ok()) << index.status();
  auto table = index->Parse(DistinctDrawnIds(3, index->num_records(), 2));
  trace::SetEnabled(false);
  ASSERT_TRUE(table.ok()) << table.status();
  const metrics::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.CounterValue("cfest.ingest.rows_parsed") -
                before.CounterValue("cfest.ingest.rows_parsed"),
            (*table)->loaded_rows());
  EXPECT_EQ(after.CounterValue("cfest.ingest.bytes_scanned") -
                before.CounterValue("cfest.ingest.bytes_scanned"),
            csv.size());
  size_t index_spans = 0, parse_spans = 0;
  for (const trace::SpanRecord& record : trace::CollectRecords()) {
    index_spans += std::string(record.name) == "ingest.index_records";
    parse_spans += std::string(record.name) == "ingest.parse_rows";
  }
  EXPECT_EQ(index_spans, 1u);
  EXPECT_EQ(parse_spans, 1u);
  trace::Reset();
}

}  // namespace
}  // namespace cfest
