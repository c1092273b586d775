// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// SampleEpoch — the refcounted read-path state of one engine sample
// generation.
//
// The engine used to keep one mutable sample (view + cached sorted sample
// indexes) behind its mutex, which forced every refresh (NotifyAppend /
// sample growth) to quiesce all in-flight estimates. An epoch snapshot breaks
// that coupling:
//
//   - Everything an estimate reads — the sample view, the table-size
//     snapshot the full-index scaling uses, the sample version, and the
//     per-key-set sorted-index cache — hangs off one SampleEpoch whose
//     sample never changes after publication.
//   - Readers pin the current epoch by copying the engine's shared_ptr
//     under a small mutex that guards only that pointer
//     (EstimationEngine::PinEpoch); they never take the engine's writer
//     mutex.
//   - Writers build the successor epoch off to the side, under the writer
//     mutex, and publish it by swapping the pointer under the same small
//     mutex. The old epoch stays fully valid until its last pinned reader
//     drops it; its destruction is counted in EpochCounters::epochs_retired.
//
// The epoch's index cache (and its memo of the adaptive interval's
// replicate builds) are plain maps under a per-epoch build mutex. A lookup
// registers a shared_future under that mutex and runs the build outside
// it, so concurrent first requests for the same key set share one build —
// the engine-level half of request coalescing (estimator/coalesce.h is the
// service-level half).
//
// Plain mutexes, not atomic shared_ptrs: libstdc++ 12 implements the
// atomic shared_ptr specialization with an internal lock bit
// (is_always_lock_free is false), so it never gave readers a lock-free
// path, and ThreadSanitizer cannot order that lock bit's relaxed release.
//
// Estimates are a pure function of the pinned epoch, so any result computed
// while appends stream in is bit-identical to a quiesced run at the same
// epoch (tests/service_test.cc and bench/bench_concurrent_service.cc gate
// exactly this).

#ifndef CFEST_ESTIMATOR_EPOCH_H_
#define CFEST_ESTIMATOR_EPOCH_H_

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "compression/compressed_index.h"
#include "index/index.h"
#include "storage/table_view.h"

namespace cfest {

/// \brief Monotone work/traffic counters shared by an engine and every
/// epoch it ever published (epochs can outlive the engine while pinned, so
/// the counter block is refcounted).
///
/// All fields are sharded metrics::Counter objects, so the estimate path
/// increments them without any lock. The constructor registers every
/// field with the process-wide MetricRegistry under `cfest.engine.*` —
/// labeled {table=<name>} when the engine was given a table name, as the
/// unlabeled child otherwise — so CacheStats (which reads these same
/// counters) and the registry's family aggregate agree bit for bit, while
/// per-table dashboards read the labeled children. Estimate counts also
/// register one {table, scheme} child per compression family
/// (`cfest.engine.estimates`), indexed by enum value so the hot path is a
/// plain array increment (label resolution happened at construction). The
/// registration handles are declared last so they retire the block's
/// totals into the registry before the counters die.
struct EpochCounters {
  EpochCounters() : EpochCounters(std::string()) {}

  explicit EpochCounters(const std::string& table_name)
      : registration(metrics::MetricRegistry::Global().RegisterCounters(
            TableLabels(table_name),
            {{"cfest.engine.samples_drawn", &samples_drawn},
             {"cfest.engine.index_builds", &index_builds},
             {"cfest.engine.index_cache_hits", &index_cache_hits},
             {"cfest.engine.index_extensions", &index_extensions},
             {"cfest.engine.invalidations", &invalidations},
             {"cfest.engine.refreshes", &refreshes},
             {"cfest.engine.epochs_published", &epochs_published},
             {"cfest.engine.epochs_retired", &epochs_retired}})) {
    for (size_t i = 0; i < kCompressionTypeCount; ++i) {
      metrics::LabelSet labels = TableLabels(table_name);
      labels.emplace_back(
          "scheme", CompressionTypeName(static_cast<CompressionType>(i)));
      scheme_registrations[i] =
          metrics::MetricRegistry::Global().RegisterCounters(
              labels, {{"cfest.engine.estimates", &estimates_by_scheme[i]}});
    }
  }

  static metrics::LabelSet TableLabels(const std::string& table_name) {
    if (table_name.empty()) return {};
    return {{"table", table_name}};
  }

  metrics::Counter samples_drawn;
  metrics::Counter index_builds;
  metrics::Counter index_cache_hits;
  metrics::Counter index_extensions;
  metrics::Counter invalidations;
  /// NotifyAppend calls that changed the reservoir contents.
  metrics::Counter refreshes;
  metrics::Counter epochs_published;
  /// Epochs destroyed after their last reader unpinned them.
  metrics::Counter epochs_retired;
  /// Sampled estimates served, by the candidate scheme's default
  /// compression family (indexed by CompressionType value).
  std::array<metrics::Counter, kCompressionTypeCount> estimates_by_scheme;
  /// Declared after the counters: destruct first, folding their final
  /// values into the registry's retired totals while they still exist.
  metrics::MetricRegistry::Registration registration;
  std::array<metrics::MetricRegistry::Registration, kCompressionTypeCount>
      scheme_registrations;
};

/// \brief One sample generation: the view, the sizing snapshot, and the
/// per-key-set sorted-index cache.
///
/// Thread-safe for any number of concurrent readers; nothing observable
/// mutates after publication (the index cache only memoizes pure builds).
/// Epochs are created and published by EstimationEngine only.
class SampleEpoch {
 public:
  ~SampleEpoch();

  SampleEpoch(const SampleEpoch&) = delete;
  SampleEpoch& operator=(const SampleEpoch&) = delete;

  /// The sample this epoch serves (shared with the engine's writer side).
  const TableView& sample() const { return *sample_; }
  std::shared_ptr<const TableView> sample_view() const { return sample_; }

  uint64_t sample_rows() const { return sample_->num_rows(); }

  /// Version of the sample contents: 1 after the initial draw, +1 per
  /// refresh or growth that actually changed the sample.
  uint64_t version() const { return version_; }

  /// Base-table rows this epoch's sample state has consumed — the `n` every
  /// full-index scaling at this epoch uses, so an estimate is deterministic
  /// even while the base table keeps growing underneath.
  uint64_t table_rows() const { return table_rows_; }

  /// The sorted sample index for `descriptor`, built at most once per
  /// distinct (key_columns, clustered) pair for this epoch's sample. The
  /// lookup holds the epoch-local build mutex only to find or register the
  /// key's shared_future; the build runs outside it, and concurrent
  /// missers for the same key share the one build.
  Result<std::shared_ptr<const Index>> SampleIndex(
      const IndexDescriptor& descriptor, const IndexBuildOptions& build) const;

  /// The `groups` sorted indexes over contiguous draw-order slices of this
  /// epoch's sample — the replicate builds behind the adaptive estimator's
  /// data-dependent interval (estimator/adaptive.h) — built at most once
  /// per (key_columns, clustered, groups) for this epoch, through the same
  /// memo as SampleIndex. Unlike sample indexes they are not counted,
  /// traced, extended on growth, or invalidated: a successor epoch with a
  /// new sample starts with none.
  Result<std::shared_ptr<const std::vector<Index>>> ReplicateIndexes(
      const IndexDescriptor& descriptor, uint32_t groups,
      const IndexBuildOptions& build) const;

 private:
  friend class EstimationEngine;

  /// One memoized build: its value, or the status it failed with.
  template <typename T>
  struct Built {
    Status status = Status::OK();
    std::shared_ptr<const T> value;
  };
  template <typename T>
  using Memo = std::unordered_map<std::string, std::shared_future<Built<T>>>;
  using IndexMap = Memo<Index>;
  using ReplicateMap = Memo<std::vector<Index>>;

  /// The memo behind SampleIndex (T = Index) and ReplicateIndexes
  /// (T = std::vector<Index>): returns `key`'s value, running `build` (a
  /// callable returning Result<T>) only if no other caller registered the
  /// key first. `hit`, if not null, reports whether the value came from
  /// the memo.
  template <typename T, typename BuildFn>
  Result<std::shared_ptr<const T>> Memoized(const std::string& key, bool* hit,
                                            BuildFn build) const
      EXCLUDES(build_mu_);

  SampleEpoch(std::shared_ptr<const TableView> sample, uint64_t version,
              uint64_t table_rows, std::shared_ptr<EpochCounters> counters);

  /// Pre-publication seeding: growth's sorted-run extensions land here
  /// before the epoch is visible to any reader.
  void SeedIndex(const std::string& key, std::shared_ptr<const Index> index)
      EXCLUDES(build_mu_);

  /// Pre-publication carry-over for a successor with the same sample: copies
  /// `predecessor`'s index and replicate memos, in-flight builds included
  /// (both epochs then share each build's shared_future).
  void CarryMemosFrom(const SampleEpoch& predecessor) EXCLUDES(build_mu_);

  /// Snapshot of the (key, index) pairs whose builds have completed
  /// successfully — what a successor epoch may extend. Never blocks on
  /// in-flight builds.
  std::vector<std::pair<std::string, std::shared_ptr<const Index>>>
  ReadyIndexes() const EXCLUDES(build_mu_);

  /// Entries currently cached (ready or in flight), for invalidation
  /// accounting when a refresh drops the cache.
  uint64_t CachedIndexCount() const EXCLUDES(build_mu_);

  std::shared_ptr<const TableView> sample_;
  uint64_t version_ = 0;
  uint64_t table_rows_ = 0;
  std::shared_ptr<EpochCounters> counters_;

  /// Guards the two memos; never held while a build runs.
  mutable Mutex build_mu_;
  mutable IndexMap indexes_ GUARDED_BY(build_mu_);
  mutable ReplicateMap replicates_ GUARDED_BY(build_mu_);
};

}  // namespace cfest

#endif  // CFEST_ESTIMATOR_EPOCH_H_
