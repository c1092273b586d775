// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// An in-memory heap table holding rows in the fixed-width encoded layout.
// This is the population SampleCF samples from; keeping rows encoded and
// densely packed makes million-row experiments cheap.
//
// Storage is split in two so the table can be *read while it grows*:
//
//   - The bulk-built rows (everything appended through TableBuilder before
//     Finish) live in one contiguous buffer that never changes afterwards.
//   - Post-construction appends land in fixed-size row segments that never
//     move or reallocate once written. The segment directory (spine) grows
//     copy-on-write and is published through an atomic pointer; the row
//     count is published with a release store only after the row bytes are
//     in place.
//
// Concurrency contract: one appender at a time (Catalog::AppendRows and the
// streaming examples are single-writer; callers with several append threads
// must serialize them), any number of concurrent readers. A reader that
// observed `num_rows() == n` may access any row id < n — including from
// other threads, provided the count was communicated with the usual
// happens-before (mutex, atomic, thread start). Slices returned by
// row()/cell() stay valid for the table's lifetime: appends never move
// existing rows. This is what lets the estimation layer's epoch-pinned
// readers (estimator/epoch.h) run zero-copy while appends stream in.

#ifndef CFEST_STORAGE_TABLE_H_
#define CFEST_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/row_codec.h"
#include "storage/schema.h"

namespace cfest {

/// \brief Identifies a row within a table (heap row id).
using RowId = uint64_t;

/// \brief A half-open range [begin, end) of heap row ids — the unit of an
/// append delta (Catalog::AppendRows returns one; EstimationEngine's
/// NotifyAppend consumes one).
struct RowRange {
  RowId begin = 0;
  RowId end = 0;

  uint64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// \brief An in-memory table of fixed-width encoded rows.
///
/// Construct through TableBuilder. Row access is zero-copy (Slice into the
/// bulk buffer or an append segment). `row()` is the one virtual read hook:
/// TableView (storage/table_view.h) overrides it to serve rows out of
/// another table through a row-id indirection, so a sample can behave like
/// a table without copying any row bytes. Everything else (cells, decoding,
/// sizes) derives from `row()` and `num_rows()`.
///
/// Rows are append-only: existing rows never move ids or change bytes.
/// `AppendRow`/`AppendEncodedRow` may grow the table after construction
/// (the streaming-delta source of truth; Catalog::AppendRows is the usual
/// entry point). See the file comment for the single-writer /
/// many-reader contract; previously returned Slices are NOT invalidated by
/// appends.
class Table {
 public:
  virtual ~Table() = default;

  const Schema& schema() const { return codec_.schema(); }
  const RowCodec& codec() const { return codec_; }

  /// Published row count. The release/acquire pairing with
  /// AppendEncodedRow makes every row id below the returned count safe to
  /// read, even while further appends are in flight.
  uint64_t num_rows() const {
    return num_rows_.load(std::memory_order_acquire);
  }
  uint32_t row_width() const { return codec_.schema().row_width(); }
  /// Total bytes of the uncompressed fixed-width representation (n * k).
  uint64_t data_bytes() const { return num_rows() * row_width(); }

  /// Zero-copy view of an encoded row. id must be < num_rows() and loaded
  /// (CheckRowLoaded).
  virtual Slice row(RowId id) const {
    const uint32_t width = row_width();
    if (id < base_rows_) {
      return Slice(buffer_.data() + static_cast<size_t>(id) * width, width);
    }
    const uint64_t off = id - base_rows_;
    const Spine* spine = spine_.load(std::memory_order_acquire);
    const char* segment =
        spine->slots[static_cast<size_t>(off / kAppendSegmentRows)];
    return Slice(segment + static_cast<size_t>(off % kAppendSegmentRows) *
                               width,
                 width);
  }

  /// OK if row `id` (< num_rows()) is held in memory. A table built
  /// through TableBuilder holds every row; a PartialTable
  /// (storage/partial_table.h) holds only the rows a sample reads and
  /// refuses the rest. TableView::Make and MaterializeSample check every id
  /// through here, so a sample never reads bytes that were not loaded.
  virtual Status CheckRowLoaded(RowId id) const {
    (void)id;
    return Status::OK();
  }

  /// Zero-copy view of one cell of a row.
  Slice cell(RowId id, size_t col) const {
    return codec_.Cell(row(id), col);
  }

  /// Decodes a row into Values (for display / tests).
  Result<Row> DecodeRow(RowId id) const { return codec_.Decode(row(id)); }

  /// Appends one already-encoded row (exactly row_width() bytes) to the
  /// heap. Views refuse (they do not own row storage). Single writer;
  /// safe against concurrent readers — the row bytes are written into
  /// stable segment storage before the count is released.
  virtual Status AppendEncodedRow(Slice encoded) {
    const uint32_t width = row_width();
    if (encoded.size() != width) {
      return Status::InvalidArgument(
          "encoded row has " + std::to_string(encoded.size()) +
          " bytes, expected " + std::to_string(width));
    }
    const uint64_t n = num_rows_.load(std::memory_order_relaxed);
    const uint64_t off = n - base_rows_;
    const size_t seg_idx = static_cast<size_t>(off / kAppendSegmentRows);
    const size_t seg_off = static_cast<size_t>(off % kAppendSegmentRows);
    Spine* spine = spine_.load(std::memory_order_relaxed);
    if (seg_off == 0) {
      // Fresh segment. Grow the spine copy-on-write if its slot array is
      // full; concurrent readers keep using the old spine, whose slots
      // cover every published row.
      segments_.push_back(std::make_unique<char[]>(
          static_cast<size_t>(kAppendSegmentRows) * width));
      if (spine == nullptr || seg_idx >= spine->slots.size()) {
        auto grown = std::make_unique<Spine>();
        grown->slots.resize(
            spine == nullptr ? size_t{8} : spine->slots.size() * 2, nullptr);
        if (spine != nullptr) {
          std::copy(spine->slots.begin(), spine->slots.end(),
                    grown->slots.begin());
        }
        spine = grown.get();
        spines_.push_back(std::move(grown));
        spine->slots[seg_idx] = segments_.back().get();
        spine_.store(spine, std::memory_order_release);
      } else {
        // Plain write: readers only dereference this slot after acquiring
        // a num_rows() that covers it, which the release store below
        // orders after this write.
        spine->slots[seg_idx] = segments_.back().get();
      }
    }
    std::memcpy(spine->slots[seg_idx] + seg_off * width, encoded.data(),
                width);
    num_rows_.store(n + 1, std::memory_order_release);
    return Status::OK();
  }

  /// Appends one row of Values (validated against the schema).
  Status AppendRow(const Row& r) {
    std::string encoded;
    CFEST_RETURN_NOT_OK(codec_.Encode(r, &encoded));
    return AppendEncodedRow(Slice(encoded));
  }

 protected:
  explicit Table(RowCodec codec) : codec_(std::move(codec)) {}

  RowCodec codec_;
  std::atomic<uint64_t> num_rows_{0};

 private:
  friend class TableBuilder;

  /// Rows per append segment: large enough that the per-segment overhead
  /// (one allocation, one spine slot) vanishes, small enough that a trickle
  /// of appends does not over-allocate.
  static constexpr uint64_t kAppendSegmentRows = 4096;

  /// Immutable-after-publication segment directory.
  struct Spine {
    std::vector<char*> slots;
  };

  std::string buffer_;
  /// Rows living in buffer_ (everything up to TableBuilder::Finish); ids
  /// at or above this resolve through the append segments.
  uint64_t base_rows_ = 0;
  std::atomic<Spine*> spine_{nullptr};
  /// Writer-side ownership. Retired spines are kept until destruction so
  /// readers holding an old directory stay valid (a few pointers each).
  std::vector<std::unique_ptr<Spine>> spines_;
  std::vector<std::unique_ptr<char[]>> segments_;
};

/// \brief Accumulates rows and produces an immutable Table.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema)
      : table_(std::unique_ptr<Table>(new Table(RowCodec(std::move(schema))))) {}

  const Schema& schema() const { return table_->schema(); }

  /// Appends a row of Values (validated against the schema).
  Status Append(const Row& row) {
    CFEST_RETURN_NOT_OK(table_->codec_.Encode(row, &table_->buffer_));
    BumpRow();
    return Status::OK();
  }

  /// Appends an already encoded row (must be exactly row_width bytes).
  Status AppendEncoded(Slice encoded) {
    if (encoded.size() != table_->row_width()) {
      return Status::InvalidArgument(
          "encoded row has " + std::to_string(encoded.size()) +
          " bytes, expected " + std::to_string(table_->row_width()));
    }
    table_->buffer_.append(encoded.data(), encoded.size());
    BumpRow();
    return Status::OK();
  }

  /// Reserves space for n rows.
  void Reserve(uint64_t n) {
    table_->buffer_.reserve(static_cast<size_t>(n) * table_->row_width());
  }

  uint64_t num_rows() const {
    return table_->num_rows_.load(std::memory_order_relaxed);
  }

  /// Finalizes the table. The builder must not be reused afterwards.
  std::unique_ptr<Table> Finish() { return std::move(table_); }

 private:
  void BumpRow() {
    // Single-threaded build: the bulk buffer is only shared once the
    // finished table is handed off (which publishes with its own
    // happens-before), so relaxed is enough here.
    const uint64_t n =
        table_->num_rows_.load(std::memory_order_relaxed) + 1;
    table_->num_rows_.store(n, std::memory_order_relaxed);
    table_->base_rows_ = n;
  }

  std::unique_ptr<Table> table_;
};

}  // namespace cfest

#endif  // CFEST_STORAGE_TABLE_H_
