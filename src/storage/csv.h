// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// CSV import/export, whole-file reads, and a compact textual schema
// notation, so the CLI tool (tools/samplecf_cli) can estimate compression
// fractions for user data without writing any C++. A CSV text loads in
// full (LoadCsv) or, for sample-based estimates, with only the records a
// sample draws (CsvRecordIndex).
//
// Schema spec grammar:  "name:type[,name:type...]" with type one of
//   int32 | int64 | date | decimal | char(k) | varchar(k)
// e.g. "l_orderkey:int64,l_shipmode:char(10),l_comment:varchar(44)".

#ifndef CFEST_STORAGE_CSV_H_
#define CFEST_STORAGE_CSV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/partial_table.h"
#include "storage/table.h"

namespace cfest {

/// Parses the schema notation above.
Result<Schema> ParseSchemaSpec(const std::string& spec);

/// Renders a schema back into the spec notation (inverse of
/// ParseSchemaSpec).
std::string SchemaToSpec(const Schema& schema);

/// Parses CSV text into a table, one row per record.
///
/// Grammar (RFC-4180 style):
///   - Records end at \r\n, \r or \n; the last record may lack one. A
///     line with no characters at all is skipped (a single quoted empty
///     field "" is a record). With has_header, the first record is skipped
///     whatever it holds.
///   - Fields are separated by commas; every record must have exactly one
///     field per schema column.
///   - A field that starts with a quote is quoted: it may hold commas and
///     line breaks, "" stands for one quote, and characters after the
///     closing quote join the field. A quote anywhere else is an error, as
///     is end of input inside quotes.
///   - A string cell must fit its declared width; it is stored blank
///     padded.
///   - An integer cell (int32, int64, date, decimal) has strtoll's base-10
///     syntax: optional leading whitespace (including quoted line breaks),
///     an optional + or - sign, then digits with nothing after them; an
///     embedded NUL ends the number. Empty cells are errors. The value must
///     fit the column (-2^31..2^31-1 for 4-byte types, the int64 range for
///     8-byte types); a value out of range is rejected, never clamped.
///
/// A rejected file names the offending record as "line N", counting every
/// record from 1 including the header and blank lines (a quoted field
/// spanning lines is one record); a misplaced quote is reported by byte
/// offset. Fields are views into content: only quoted fields are copied.
Result<std::unique_ptr<Table>> LoadCsv(const std::string& content,
                                       const Schema& schema,
                                       bool has_header = true);

/// \brief The data records of a CSV text, indexed in one pass so that a
/// sample can parse only the records it draws (sampled ingest).
///
/// Build walks every byte once: a memchr scan of line breaks when the text
/// holds no quote and no carriage return, LoadCsv's own record reader
/// otherwise. It drops the header and blank lines, so num_records() is the
/// row count n of a full LoadCsv, and keeps each data record's offset.
/// Parse then encodes only the given records into a PartialTable of n
/// rows.
///
/// Validation contract: `exact` validates every cell; sample-based
/// commands validate what they read.
///   - Build checks the structure of every record: its boundaries, its
///     quoting and its field count. It fails on the first structural
///     error in file order, with LoadCsv's message.
///   - Parse checks cell contents (type, width, integer range) only for
///     the records it parses, and fails on the first cell error among them
///     in file order, with LoadCsv's message, "line N" included (N is
///     counted on the error path only).
/// A text LoadCsv accepts is therefore always accepted here, with the same
/// bytes for every parsed row; a text it rejects for a cell no sample
/// reads is accepted.
///
/// The index borrows `content`, which must outlive it (not the tables
/// Parse returns, which own their rows).
class CsvRecordIndex {
 public:
  static Result<CsvRecordIndex> Build(std::string_view content,
                                      const Schema& schema,
                                      bool has_header = true);

  /// Data records in the text: the n of the full table.
  uint64_t num_records() const { return offsets_.size(); }

  /// Parses records `ids` (ascending, distinct, below num_records()) into
  /// a table of num_records() rows that holds just those rows.
  Result<std::unique_ptr<PartialTable>> Parse(
      const std::vector<RowId>& ids) const;

 private:
  CsvRecordIndex(std::string_view content, const Schema& schema)
      : content_(content), schema_(schema) {}

  /// The "line N" of the record starting at `offset`: records from 1,
  /// header and blank lines included.
  uint64_t LineOf(uint64_t offset) const;

  std::string_view content_;
  Schema schema_;
  /// Start offset of each data record, in file order.
  std::vector<uint64_t> offsets_;
};

/// Reads a whole file into memory with one copy. NotFound if the file
/// cannot be opened; InvalidArgument if reading fails (a directory, an I/O
/// error).
Result<std::string> ReadFileContents(const std::string& path);

/// Serializes a table to CSV (with a header row when header == true).
std::string WriteCsv(const Table& table, bool header = true);

}  // namespace cfest

#endif  // CFEST_STORAGE_CSV_H_
