#include "storage/partial_table.h"

#include <string>
#include <utility>

namespace cfest {

Result<std::unique_ptr<PartialTable>> PartialTable::Make(
    Schema schema, uint64_t num_rows, const std::vector<RowId>& ids,
    std::string rows) {
  if (ids.size() >= kNotLoaded) {
    return Status::CapacityExceeded("a partial table holds fewer than 2^32 - 1"
                                    " rows, got " +
                                    std::to_string(ids.size()));
  }
  if (rows.size() != ids.size() * schema.row_width()) {
    return Status::InvalidArgument(
        "partial table rows hold " + std::to_string(rows.size()) +
        " bytes, expected " + std::to_string(ids.size()) + " rows of " +
        std::to_string(schema.row_width()));
  }
  CFEST_RETURN_NOT_OK(CheckIds(ids, num_rows));
  return std::unique_ptr<PartialTable>(
      new PartialTable(std::move(schema), num_rows, ids, std::move(rows)));
}

PartialTable::PartialTable(Schema schema, uint64_t num_rows,
                           const std::vector<RowId>& ids, std::string rows)
    : Table(RowCodec(std::move(schema))),
      loaded_rows_(ids.size()),
      rows_(std::move(rows)),
      slot_(static_cast<size_t>(num_rows), kNotLoaded) {
  for (size_t i = 0; i < ids.size(); ++i) {
    slot_[static_cast<size_t>(ids[i])] = static_cast<uint32_t>(i);
  }
  num_rows_ = num_rows;
}

Status PartialTable::CheckIds(const std::vector<RowId>& ids,
                              uint64_t num_rows) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= num_rows || (i > 0 && ids[i] <= ids[i - 1])) {
      return Status::InvalidArgument(
          "row ids must be ascending, distinct and below " +
          std::to_string(num_rows) + ", got " + std::to_string(ids[i]) +
          " at position " + std::to_string(i));
    }
  }
  return Status::OK();
}

Status PartialTable::CheckRowLoaded(RowId id) const {
  if (id < slot_.size() && slot_[static_cast<size_t>(id)] != kNotLoaded) {
    return Status::OK();
  }
  return Status::OutOfRange("row id " + std::to_string(id) +
                            " was not loaded (the table holds " +
                            std::to_string(loaded_rows_) + " of its " +
                            std::to_string(slot_.size()) +
                            " rows: those its sample draws)");
}

}  // namespace cfest
