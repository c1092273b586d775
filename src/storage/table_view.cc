#include "storage/table_view.h"

#include <string>

namespace cfest {

Result<std::unique_ptr<TableView>> TableView::Make(const Table& base,
                                                   std::vector<RowId> ids) {
  for (RowId id : ids) {
    if (id >= base.num_rows()) {
      return Status::OutOfRange("view row id " + std::to_string(id) +
                                " >= base table size " +
                                std::to_string(base.num_rows()));
    }
    CFEST_RETURN_NOT_OK(base.CheckRowLoaded(id));
  }
  return std::unique_ptr<TableView>(new TableView(base, std::move(ids)));
}

}  // namespace cfest
