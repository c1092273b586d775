#include "estimator/epoch.h"

#include <chrono>
#include <type_traits>

#include "common/trace.h"
#include "estimator/engine.h"


namespace cfest {
namespace {

/// The `groups` sorted indexes over contiguous draw-order slices of
/// `sample` — the replicate builds behind the data-dependent interval.
Result<std::vector<Index>> BuildGroupIndexes(const Table& sample,
                                             const IndexDescriptor& descriptor,
                                             uint32_t groups,
                                             const IndexBuildOptions& build) {
  const uint64_t rows = sample.num_rows();
  std::vector<Index> indexes;
  indexes.reserve(groups);
  for (uint32_t j = 0; j < groups; ++j) {
    const uint64_t begin = rows * j / groups;
    const uint64_t end = rows * (j + 1) / groups;
    std::vector<RowId> positions;
    positions.reserve(static_cast<size_t>(end - begin));
    for (uint64_t p = begin; p < end; ++p) positions.push_back(p);
    CFEST_ASSIGN_OR_RETURN(std::unique_ptr<TableView> view,
                           TableView::Make(sample, std::move(positions)));
    CFEST_ASSIGN_OR_RETURN(Index index,
                           Index::Build(*view, descriptor, build));
    indexes.push_back(std::move(index));
  }
  return indexes;
}

}  // namespace

SampleEpoch::SampleEpoch(std::shared_ptr<const TableView> sample,
                         uint64_t version, uint64_t table_rows,
                         std::shared_ptr<EpochCounters> counters)
    : sample_(std::move(sample)),
      version_(version),
      table_rows_(table_rows),
      counters_(std::move(counters)) {
  counters_->epochs_published.Increment();
}

SampleEpoch::~SampleEpoch() {
  counters_->epochs_retired.Increment();
}

template <typename T, typename BuildFn>
Result<std::shared_ptr<const T>> SampleEpoch::Memoized(
    const std::string& key, bool* hit, BuildFn build) const {
  std::promise<Built<T>> promise;
  std::shared_future<Built<T>> future;
  bool builder = false;
  {
    // Find or register the key's build; concurrent missers for the same
    // key share the first one's future, and the build runs unlocked.
    MutexLock lock(build_mu_);
    Memo<T>* memo;
    if constexpr (std::is_same_v<T, Index>) {
      memo = &indexes_;
    } else {
      memo = &replicates_;
    }
    auto [it, inserted] = memo->try_emplace(key, promise.get_future());
    builder = inserted;
    future = it->second;
  }

  if (hit != nullptr) *hit = !builder;
  if (builder) {
    Built<T> entry;
    Result<T> built = build();
    if (built.ok()) {
      entry.value = std::make_shared<const T>(std::move(built).ValueOrDie());
    } else {
      entry.status = built.status();
    }
    promise.set_value(std::move(entry));
  }

  const Built<T>& entry = future.get();
  CFEST_RETURN_NOT_OK(entry.status);
  return entry.value;
}

Result<std::shared_ptr<const Index>> SampleEpoch::SampleIndex(
    const IndexDescriptor& descriptor, const IndexBuildOptions& build) const {
  bool hit = false;
  Result<std::shared_ptr<const Index>> index =
      Memoized<Index>(SampleIndexCacheKey(descriptor), &hit, [&] {
        trace::Span span("engine.index_build");
        return Index::Build(*sample_, descriptor, build);
      });
  if (hit) {
    counters_->index_cache_hits.Increment();
  } else {
    counters_->index_builds.Increment();
  }
  return index;
}

Result<std::shared_ptr<const std::vector<Index>>>
SampleEpoch::ReplicateIndexes(const IndexDescriptor& descriptor,
                              uint32_t groups,
                              const IndexBuildOptions& build) const {
  // Same key convention as the sample-index memo, extended by the group
  // count.
  const std::string key =
      SampleIndexCacheKey(descriptor) + ':' + std::to_string(groups);
  return Memoized<std::vector<Index>>(key, nullptr, [&] {
    return BuildGroupIndexes(*sample_, descriptor, groups, build);
  });
}

void SampleEpoch::SeedIndex(const std::string& key,
                            std::shared_ptr<const Index> index) {
  Built<Index> entry;
  entry.value = std::move(index);
  std::promise<Built<Index>> promise;
  promise.set_value(std::move(entry));
  MutexLock lock(build_mu_);
  indexes_.insert_or_assign(key, promise.get_future().share());
}

void SampleEpoch::CarryMemosFrom(const SampleEpoch& predecessor) {
  // Copy first, then install: no thread ever holds two epochs' build_mu_.
  IndexMap indexes;
  ReplicateMap replicates;
  {
    MutexLock lock(predecessor.build_mu_);
    indexes = predecessor.indexes_;
    replicates = predecessor.replicates_;
  }
  MutexLock lock(build_mu_);
  indexes_ = std::move(indexes);
  replicates_ = std::move(replicates);
}

std::vector<std::pair<std::string, std::shared_ptr<const Index>>>
SampleEpoch::ReadyIndexes() const {
  MutexLock lock(build_mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const Index>>> ready;
  ready.reserve(indexes_.size());
  for (const auto& [key, future] : indexes_) {
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;  // in-flight build: the successor rebuilds on demand
    }
    const Built<Index>& entry = future.get();
    if (!entry.status.ok() || entry.value == nullptr) continue;
    ready.emplace_back(key, entry.value);
  }
  return ready;
}

uint64_t SampleEpoch::CachedIndexCount() const {
  MutexLock lock(build_mu_);
  return indexes_.size();
}

}  // namespace cfest
