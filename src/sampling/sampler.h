// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Row sampling — step 1 of the paper's SampleCF algorithm. The paper's
// analysis assumes uniform random sampling *with replacement*; commercial
// systems use block-level sampling ("all the rows from a randomly sampled
// page are included"), which we also implement so the paper's future-work
// comparison can be run.

#ifndef CFEST_SAMPLING_SAMPLER_H_
#define CFEST_SAMPLING_SAMPLER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace cfest {

/// \brief Strategy for drawing a row sample from a table.
class RowSampler {
 public:
  virtual ~RowSampler() = default;

  virtual std::string name() const = 0;

  /// Draws row ids for a sample of roughly `fraction * num_rows` rows.
  /// fraction must lie in (0, 1]; samplers without replacement cap the
  /// sample at the table size. Ids are in draw order and may repeat for
  /// with-replacement samplers.
  virtual Result<std::vector<RowId>> SampleIds(const Table& table,
                                               double fraction,
                                               Random* rng) const = 0;

  /// Materializes the sampled rows as a new table with the same schema
  /// (copies row bytes; the paper-fidelity path).
  Result<std::unique_ptr<Table>> Sample(const Table& table, double fraction,
                                        Random* rng) const;

  /// Draws a sample as a zero-copy TableView over `table`: same ids as
  /// Sample() for the same rng state, no row bytes copied. `table` must
  /// outlive the view.
  Result<std::unique_ptr<TableView>> SampleView(const Table& table,
                                                double fraction,
                                                Random* rng) const;
};

/// Copies the given rows of `table` into a new table (in the given order).
Result<std::unique_ptr<Table>> MaterializeSample(const Table& table,
                                                 const std::vector<RowId>& ids);

/// Validates a sampling fraction.
Status CheckFraction(double fraction);

/// Rows a fixed-fraction sample of a `num_rows`-row table holds:
/// round(fraction * num_rows), at least 1. fraction must be valid
/// (CheckFraction).
uint64_t SampleRowsForFraction(double fraction, uint64_t num_rows);

/// Appends `count` row ids drawn uniformly with replacement from
/// [0, num_rows) by `rng` (num_rows > 0). This is the one with-replacement
/// draw: the uniform-with-replacement sampler, an engine's resumed growth
/// stream and the sampled CSV loader all take their ids from it, so the
/// same seed yields the same ids everywhere.
void DrawIdsWithReplacement(uint64_t num_rows, uint64_t count, Random* rng,
                            std::vector<RowId>* ids);

/// The distinct ids, ascending, among the first `draws` ids that
/// Random(seed) draws with replacement over [0, num_rows): every row a
/// with-replacement sample seeded by `seed` reads while it holds at most
/// `draws` rows (an engine's growth resumes its initial draw's stream).
/// Empty when num_rows is 0.
std::vector<RowId> DistinctDrawnIds(uint64_t seed, uint64_t num_rows,
                                    uint64_t draws);

/// \brief Uniform sampling with replacement: r = round(f*n) independent
/// draws. This is the sampler the paper's theorems are stated for.
std::unique_ptr<RowSampler> MakeUniformWithReplacementSampler();

/// \brief Uniform sampling without replacement (Robert Floyd's algorithm),
/// r = round(f*n) distinct rows in randomized order.
std::unique_ptr<RowSampler> MakeUniformWithoutReplacementSampler();

/// \brief Bernoulli sampling: each row included independently with
/// probability f (sample size is binomial, not fixed).
std::unique_ptr<RowSampler> MakeBernoulliSampler();

/// \brief Reservoir sampling, Vitter's Algorithm R (ref [5] of the paper):
/// one streaming pass, r = round(f*n) distinct rows.
std::unique_ptr<RowSampler> MakeReservoirSampler();

/// \brief Block-level sampling: rows are grouped into consecutive blocks of
/// `rows_per_block`; whole blocks are sampled without replacement until the
/// target row count is reached. rows_per_block == 0 derives the block size
/// from how many rows fit an 8 KB page.
std::unique_ptr<RowSampler> MakeBlockSampler(uint32_t rows_per_block = 0);

/// \brief Stratified sampling: the table is split into `strata` contiguous
/// partitions and each contributes round(f * stratum_size) rows drawn
/// uniformly without replacement. Guarantees coverage of every region of
/// the table (classic variance reduction when values correlate with
/// position, e.g. time-ordered loads).
std::unique_ptr<RowSampler> MakeStratifiedSampler(uint32_t strata = 16);

}  // namespace cfest

#endif  // CFEST_SAMPLING_SAMPLER_H_
