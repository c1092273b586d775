#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sampling/reservoir.h"
#include "storage/page.h"

namespace cfest {

Status CheckFraction(double fraction) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    return Status::InvalidArgument("sampling fraction must be in (0, 1], got " +
                                   std::to_string(fraction));
  }
  return Status::OK();
}

uint64_t SampleRowsForFraction(double fraction, uint64_t num_rows) {
  const double r = std::round(fraction * static_cast<double>(num_rows));
  return std::max<uint64_t>(1, static_cast<uint64_t>(r));
}

void DrawIdsWithReplacement(uint64_t num_rows, uint64_t count, Random* rng,
                            std::vector<RowId>* ids) {
  ids->reserve(ids->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    ids->push_back(rng->NextBounded(num_rows));
  }
}

std::vector<RowId> DistinctDrawnIds(uint64_t seed, uint64_t num_rows,
                                    uint64_t draws) {
  std::vector<RowId> ids;
  if (num_rows == 0) return ids;
  Random rng(seed);
  DrawIdsWithReplacement(num_rows, draws, &rng, &ids);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<std::unique_ptr<Table>> MaterializeSample(
    const Table& table, const std::vector<RowId>& ids) {
  TableBuilder builder(table.schema());
  builder.Reserve(ids.size());
  for (RowId id : ids) {
    if (id >= table.num_rows()) {
      return Status::OutOfRange("sampled row id " + std::to_string(id) +
                                " >= table size " +
                                std::to_string(table.num_rows()));
    }
    CFEST_RETURN_NOT_OK(table.CheckRowLoaded(id));
    CFEST_RETURN_NOT_OK(builder.AppendEncoded(table.row(id)));
  }
  return builder.Finish();
}

Result<std::unique_ptr<Table>> RowSampler::Sample(const Table& table,
                                                  double fraction,
                                                  Random* rng) const {
  CFEST_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                         SampleIds(table, fraction, rng));
  return MaterializeSample(table, ids);
}

Result<std::unique_ptr<TableView>> RowSampler::SampleView(const Table& table,
                                                          double fraction,
                                                          Random* rng) const {
  CFEST_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                         SampleIds(table, fraction, rng));
  return TableView::Make(table, std::move(ids));
}

namespace {

class UniformWithReplacementSampler final : public RowSampler {
 public:
  std::string name() const override { return "uniform_wr"; }

  Result<std::vector<RowId>> SampleIds(const Table& table, double fraction,
                                       Random* rng) const override {
    CFEST_RETURN_NOT_OK(CheckFraction(fraction));
    if (table.num_rows() == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    std::vector<RowId> ids;
    DrawIdsWithReplacement(table.num_rows(),
                           SampleRowsForFraction(fraction, table.num_rows()),
                           rng, &ids);
    return ids;
  }
};

class UniformWithoutReplacementSampler final : public RowSampler {
 public:
  std::string name() const override { return "uniform_wor"; }

  Result<std::vector<RowId>> SampleIds(const Table& table, double fraction,
                                       Random* rng) const override {
    CFEST_RETURN_NOT_OK(CheckFraction(fraction));
    if (table.num_rows() == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    const uint64_t n = table.num_rows();
    const uint64_t r = std::min(SampleRowsForFraction(fraction, n), n);
    // Robert Floyd's sampling algorithm: r distinct ids in O(r) expected.
    std::unordered_set<RowId> chosen;
    chosen.reserve(static_cast<size_t>(r) * 2);
    std::vector<RowId> ids;
    ids.reserve(r);
    for (uint64_t j = n - r; j < n; ++j) {
      const RowId t = rng->NextBounded(j + 1);
      if (chosen.insert(t).second) {
        ids.push_back(t);
      } else {
        chosen.insert(j);
        ids.push_back(j);
      }
    }
    rng->Shuffle(&ids);
    return ids;
  }
};

class BernoulliSampler final : public RowSampler {
 public:
  std::string name() const override { return "bernoulli"; }

  Result<std::vector<RowId>> SampleIds(const Table& table, double fraction,
                                       Random* rng) const override {
    CFEST_RETURN_NOT_OK(CheckFraction(fraction));
    if (table.num_rows() == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    std::vector<RowId> ids;
    ids.reserve(static_cast<size_t>(
        fraction * static_cast<double>(table.num_rows()) * 1.2 + 16));
    for (RowId id = 0; id < table.num_rows(); ++id) {
      if (rng->NextBernoulli(fraction)) ids.push_back(id);
    }
    return ids;
  }
};

class ReservoirRowSampler final : public RowSampler {
 public:
  std::string name() const override { return "reservoir"; }

  Result<std::vector<RowId>> SampleIds(const Table& table, double fraction,
                                       Random* rng) const override {
    CFEST_RETURN_NOT_OK(CheckFraction(fraction));
    if (table.num_rows() == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    const uint64_t n = table.num_rows();
    const uint64_t r = std::min(SampleRowsForFraction(fraction, n), n);
    // Vitter's Algorithm R via the shared slot core (sampling/reservoir.h).
    ReservoirSampler core(r);
    std::vector<RowId> reservoir(static_cast<size_t>(r), 0);
    for (RowId id = 0; id < n; ++id) {
      const uint64_t slot = core.Offer(rng);
      if (slot != ReservoirSampler::kSkip) {
        reservoir[static_cast<size_t>(slot)] = id;
      }
    }
    return reservoir;
  }
};

class BlockSampler final : public RowSampler {
 public:
  explicit BlockSampler(uint32_t rows_per_block)
      : rows_per_block_(rows_per_block) {}

  std::string name() const override { return "block"; }

  Result<std::vector<RowId>> SampleIds(const Table& table, double fraction,
                                       Random* rng) const override {
    CFEST_RETURN_NOT_OK(CheckFraction(fraction));
    if (table.num_rows() == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    uint64_t block = rows_per_block_;
    if (block == 0) {
      // Rows that fit one default data page.
      block = std::max<uint64_t>(
          1, (kDefaultPageSize - kPageHeaderSize) /
                 (table.row_width() + kSlotSize));
    }
    const uint64_t n = table.num_rows();
    const uint64_t num_blocks = (n + block - 1) / block;
    const uint64_t target = SampleRowsForFraction(fraction, n);

    // Sample whole blocks without replacement until >= target rows.
    std::vector<uint64_t> block_ids(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i) block_ids[i] = i;
    rng->Shuffle(&block_ids);
    std::vector<RowId> ids;
    ids.reserve(target + block);
    for (uint64_t b : block_ids) {
      if (ids.size() >= target) break;
      const RowId begin = b * block;
      const RowId end = std::min(n, begin + block);
      for (RowId id = begin; id < end; ++id) ids.push_back(id);
    }
    return ids;
  }

 private:
  uint32_t rows_per_block_;
};

class StratifiedSampler final : public RowSampler {
 public:
  explicit StratifiedSampler(uint32_t strata)
      : strata_(strata == 0 ? 1 : strata) {}

  std::string name() const override { return "stratified"; }

  Result<std::vector<RowId>> SampleIds(const Table& table, double fraction,
                                       Random* rng) const override {
    CFEST_RETURN_NOT_OK(CheckFraction(fraction));
    if (table.num_rows() == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    const uint64_t n = table.num_rows();
    const uint64_t num_strata = std::min<uint64_t>(strata_, n);
    std::vector<RowId> ids;
    UniformWithoutReplacementSampler wor;
    for (uint64_t s = 0; s < num_strata; ++s) {
      const RowId begin = s * n / num_strata;
      const RowId end = (s + 1) * n / num_strata;
      const uint64_t size = end - begin;
      if (size == 0) continue;
      // Draw WOR within the stratum by sampling offsets in [0, size).
      const uint64_t want = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::round(fraction * static_cast<double>(size))));
      std::unordered_set<RowId> chosen;
      std::vector<RowId> offsets;
      const uint64_t r = std::min(want, size);
      for (uint64_t j = size - r; j < size; ++j) {
        const RowId t = rng->NextBounded(j + 1);
        if (chosen.insert(t).second) {
          offsets.push_back(t);
        } else {
          chosen.insert(j);
          offsets.push_back(j);
        }
      }
      for (RowId off : offsets) ids.push_back(begin + off);
    }
    rng->Shuffle(&ids);
    return ids;
  }

 private:
  uint32_t strata_;
};

}  // namespace

std::unique_ptr<RowSampler> MakeUniformWithReplacementSampler() {
  return std::make_unique<UniformWithReplacementSampler>();
}
std::unique_ptr<RowSampler> MakeUniformWithoutReplacementSampler() {
  return std::make_unique<UniformWithoutReplacementSampler>();
}
std::unique_ptr<RowSampler> MakeBernoulliSampler() {
  return std::make_unique<BernoulliSampler>();
}
std::unique_ptr<RowSampler> MakeReservoirSampler() {
  return std::make_unique<ReservoirRowSampler>();
}
std::unique_ptr<RowSampler> MakeBlockSampler(uint32_t rows_per_block) {
  return std::make_unique<BlockSampler>(rows_per_block);
}
std::unique_ptr<RowSampler> MakeStratifiedSampler(uint32_t strata) {
  return std::make_unique<StratifiedSampler>(strata);
}

}  // namespace cfest
