// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// CSV import/export, whole-file reads, and a compact textual schema
// notation, so the CLI tool (tools/samplecf_cli) can estimate compression
// fractions for user data without writing any C++.
//
// Schema spec grammar:  "name:type[,name:type...]" with type one of
//   int32 | int64 | date | decimal | char(k) | varchar(k)
// e.g. "l_orderkey:int64,l_shipmode:char(10),l_comment:varchar(44)".

#ifndef CFEST_STORAGE_CSV_H_
#define CFEST_STORAGE_CSV_H_

#include <memory>
#include <string>

#include "common/result.h"
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

/// Reads a whole file into memory with one copy. NotFound if the file
/// cannot be opened; InvalidArgument if reading fails (a directory, an I/O
/// error).
Result<std::string> ReadFileContents(const std::string& path);

/// Serializes a table to CSV (with a header row when header == true).
std::string WriteCsv(const Table& table, bool header = true);

}  // namespace cfest

#endif  // CFEST_STORAGE_CSV_H_
