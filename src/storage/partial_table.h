// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// PartialTable — an n-row table of which only some rows are in memory.
//
// A sample-based estimate reads the rows its sample draws and nothing
// else. The sampled CSV loader (storage/csv.h, CsvRecordIndex) therefore
// parses only the records a seeded draw will address and stores them in a
// PartialTable: num_rows() is the full record count n, so every sampler,
// engine and scaling step sees the same table size as after a full load
// and draws the same ids, while row(id) serves only the loaded ids. Any
// other id is refused by CheckRowLoaded, which TableView::Make and
// MaterializeSample consult, so a draw that strays past the loaded rows
// fails with a Status instead of reading bytes that were never parsed.

#ifndef CFEST_STORAGE_PARTIAL_TABLE_H_
#define CFEST_STORAGE_PARTIAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace cfest {

/// \brief A Table of num_rows() rows holding the encoded bytes of only
/// some of them. Read-only: appends are refused.
class PartialTable final : public Table {
 public:
  /// A `num_rows`-row table holding row ids[i] as rows[i * row_width ..].
  /// ids must be ascending, distinct and below num_rows, with one encoded
  /// row of `schema`'s width each in `rows`.
  static Result<std::unique_ptr<PartialTable>> Make(
      Schema schema, uint64_t num_rows, const std::vector<RowId>& ids,
      std::string rows);

  Slice row(RowId id) const override {
    const uint32_t width = row_width();
    return Slice(rows_.data() + static_cast<size_t>(slot_[id]) * width, width);
  }

  Status CheckRowLoaded(RowId id) const override;

  /// OK if `ids` are ascending, distinct and below num_rows: the ids Make
  /// takes.
  static Status CheckIds(const std::vector<RowId>& ids, uint64_t num_rows);

  Status AppendEncodedRow(Slice) override {
    return Status::NotSupported("cannot append rows to a partially loaded "
                                "table");
  }

  /// Rows held in memory (the loaded ids).
  uint64_t loaded_rows() const { return loaded_rows_; }

 private:
  /// slot_ value of an id that was not loaded.
  static constexpr uint32_t kNotLoaded = UINT32_MAX;

  PartialTable(Schema schema, uint64_t num_rows,
               const std::vector<RowId>& ids, std::string rows);

  uint64_t loaded_rows_;
  std::string rows_;
  /// Per table row: its position in rows_, or kNotLoaded. Four bytes per
  /// row of the full table, against a full load's row_width bytes.
  std::vector<uint32_t> slot_;
};

}  // namespace cfest

#endif  // CFEST_STORAGE_PARTIAL_TABLE_H_
