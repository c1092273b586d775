// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// AdaptiveEstimator — confidence-driven sample growth until CF' is tight.
//
// The paper sizes every candidate at one fixed sampling fraction f, but its
// accuracy analysis says, per estimate, how many sample rows are actually
// needed: Theorem 1 bounds the NS estimator's standard deviation by
// 1/(2 sqrt(r)) regardless of the data, and the empirical variance of the
// sample tells the same story, data-dependently, for every other scheme.
// Easy columns need far fewer rows than any reasonable fixed f draws; hard
// ones need more than it gives. The adaptive flow closes that loop:
//
//   1. Start from the engine's (small) base-fraction sample.
//   2. Estimate every candidate and attach a confidence interval:
//        - uncompressed candidates are exact (schema arithmetic);
//        - uniform null-suppression uses the distribution-free Theorem 1
//          bound;
//        - everything else uses a data-dependent width in the style of
//          EmpiricalNsConfidenceInterval: the sample is split into g
//          contiguous draw-order groups (each an i.i.d. replicate at r/g
//          rows), the scheme is run on each, and the spread of the group
//          estimates scaled by 1/sqrt(g) estimates the full-sample sigma.
//          The group indexes are memoized on the sample epoch
//          (SampleEpoch::ReplicateIndexes), so every scheme on one key
//          set shares one set of builds.
//   3. Candidates whose interval half-width meets the relative-error
//      target converge and drop out of later rounds.
//   4. For the rest, EstimateNeededSampleRows extrapolates the required
//      sample size via the 1/sqrt(r) law (Theorems 1-3); the engine's
//      sample grows geometrically toward it — resuming the same RNG
//      stream, so the grown sample is bit-identical to a fresh draw at the
//      final fraction and cached sample indexes extend by sorted-run merge
//      instead of rebuilding — until every candidate converges or the
//      row budget / fraction cap is exhausted.
//
// Every intermediate sample is a prefix of the final one, so a candidate
// that converged in round k reports exactly the estimate a fixed-fraction
// run at (its rows / n) under the same seed would have produced
// (bench/bench_adaptive.cc gates this equality on every run).

#ifndef CFEST_ESTIMATOR_ADAPTIVE_H_
#define CFEST_ESTIMATOR_ADAPTIVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "estimator/analytic_model.h"
#include "estimator/engine.h"
#include "estimator/service.h"

namespace cfest {

/// \brief Caller-supplied precision contract for adaptive estimation.
struct PrecisionTarget {
  /// Target relative half-width: converge when the interval half-width is
  /// <= rel_error * max(CF', cf_floor).
  double rel_error = 0.05;
  /// Two-sided confidence the interval is built for; mapped to a normal
  /// sigma multiplier via NumSigmasForConfidence.
  double confidence = 0.95;
  /// Hard cap on the sample as a fraction of the table (growth never
  /// exceeds round(max_fraction * n) rows).
  double max_fraction = 0.5;
  /// Absolute cap on sample rows; 0 = derive from max_fraction only.
  uint64_t row_budget = 0;
  /// Geometric growth per round (the floor; the extrapolated need may
  /// jump further). Must be > 1.
  double growth_factor = 2.0;
  /// Denominator floor of the relative target, so near-zero CF' estimates
  /// do not demand unbounded samples.
  double cf_floor = 0.05;
  /// Rows the first round is grown to if the engine's base-fraction draw
  /// is smaller (intervals on a handful of rows are meaningless).
  uint64_t min_rows = 64;
  /// Replicate groups for the data-dependent interval (>= 2).
  uint32_t interval_groups = 8;
  /// Hard stop on growth rounds.
  uint32_t max_rounds = 32;
};

/// True when every column of `scheme` is null-suppressed — the per-row-
/// local case Theorem 1's distribution-free bound is stated for, and the
/// only case whose confidence interval also bounds the error against the
/// true CF (the estimator is unbiased; context-dependent schemes carry a
/// small-sample bias the replicate interval cannot see). The lazy advisor
/// keys its trust in coarse interval bounds on this.
bool IsUniformNullSuppressionScheme(const CompressionScheme& scheme);

/// Sigma multiplier z such that a normal +-z sigma interval has two-sided
/// coverage `confidence` (e.g. 0.95 -> ~1.96). Requires 0 < confidence < 1.
Result<double> NumSigmasForConfidence(double confidence);

/// Extrapolates the sample size needed for `target_half_width` from an
/// interval of `half_width_now` observed at `rows_now` rows, under the
/// 1/sqrt(r) width law of Theorems 1-3: rows_now * (now / target)^2,
/// rounded up. Returns rows_now when the target is already met.
uint64_t EstimateNeededSampleRows(double half_width_now, uint64_t rows_now,
                                  double target_half_width);

/// \brief One candidate's adaptive outcome.
struct AdaptiveCandidateResult {
  /// Footprint sizing, identical to what EstimationEngine::EstimateAt
  /// returns at this candidate's final-fraction epoch.
  SizedCandidate sized;
  /// CF' under the engine's base metric — the quantity the interval and
  /// the convergence rule are about.
  double cf = 1.0;
  ConfidenceInterval interval;
  /// The half-width the candidate had to reach: rel_error * max(cf, floor).
  double target_half_width = 0.0;
  /// Sample rows behind the final estimate (its fixed-f-equivalent draw).
  uint64_t rows_sampled = 0;
  /// Sum of the sample rows this candidate was estimated on across EVERY
  /// round it participated in — per-candidate sizing-work attribution
  /// that survives convergence dropout (rows_sampled only reports the
  /// final round's sample; a candidate that converged in round 1 and a
  /// candidate refined for 5 rounds can report the same rows_sampled
  /// while costing very different work). 0 for uncompressed candidates.
  uint64_t cumulative_rows_sized = 0;
  /// Growth rounds this candidate participated in.
  uint32_t rounds = 0;
  bool converged = false;
  /// "exact", "theorem1", or "group_replicates".
  std::string interval_method;
};

/// \brief Per-table growth report.
struct AdaptiveTableReport {
  std::string table_name;
  uint64_t final_sample_rows = 0;
  uint32_t rounds = 0;
  /// True if some candidate on this table hit the row budget, fraction
  /// cap, or round cap before converging.
  bool budget_exhausted = false;
  /// Sample size at each round (the growth schedule actually taken).
  std::vector<uint64_t> rows_per_round;
};

/// Human rendering of a growth schedule: "120 -> 720 -> 3934" (empty
/// string for an empty schedule). Shared by the CLI and bench reports.
std::string FormatGrowthSchedule(const std::vector<uint64_t>& rows_per_round);

/// \brief Outcome of one adaptive batch.
struct AdaptiveBatchResult {
  /// Positionally aligned with the input candidates.
  std::vector<AdaptiveCandidateResult> candidates;
  std::vector<AdaptiveTableReport> tables;
  /// Sum of final sample rows across tables.
  uint64_t total_sample_rows = 0;
  /// Max rounds over tables.
  uint32_t rounds = 0;
  /// Any table exhausted its budget with unconverged candidates.
  bool budget_exhausted = false;
};

/// \brief One entry of EstimateCandidateIntervals.
struct CandidateIntervalResult {
  /// CF' at the engine's base metric (the interval's center).
  double cf = 1.0;
  ConfidenceInterval interval;
  /// "exact", "theorem1", or "group_replicates".
  std::string method;
};

/// Batch variant: computes each candidate's base-metric CF' through the
/// engine's cached sample indexes and attaches its interval. Everything
/// reads one pinned epoch, whose replicate builds
/// (SampleEpoch::ReplicateIndexes) every scheme on the same key set shares
/// — as do later calls and adaptive estimates on that epoch. Results align
/// with `candidates`. `pool` fans the per-candidate work out (nullptr =
/// serial); pass the engine's or service's shared pool — the CLI's
/// fixed-fraction --json paths do — instead of spinning a second pool.
Result<std::vector<CandidateIntervalResult>> EstimateCandidateIntervals(
    EstimationEngine& engine,
    std::span<const CandidateConfiguration> candidates, double num_sigmas,
    uint32_t interval_groups = PrecisionTarget{}.interval_groups,
    ThreadPool* pool = nullptr);

/// \brief Grows one engine's sample until candidates meet the precision
/// target (or the budget runs out) — the eager round loop and the lazy
/// advisor's (advisor/search.h) per-candidate refinement alike.
///
/// EstimateAll drives *all* candidates through a shared round loop;
/// EstimateAtCurrentSample and RefineUntil estimate and grow for one
/// candidate at a time, so a branch-and-bound search refines only the
/// candidates whose intervals straddle a decision. Both take the same
/// growth step through GrowSampleToEpoch, so the prefix property holds
/// either way: every estimate equals a fixed-fraction run at its rows / n
/// under the engine seed, and RefineUntil on one candidate takes the
/// schedule the round loop takes when that candidate votes alone.
///
/// Estimates read one pinned epoch each, and replicate builds are
/// memoized on it. EstimateAtCurrentSample calls may run concurrently with
/// each other (the coarse pass fans them across the shared pool);
/// EstimateAll and RefineUntil grow the engine's sample and — like
/// NotifyAppend — must not run concurrently with any estimate on the same
/// engine.
class AdaptiveEstimator {
 public:
  /// Validates `target` and derives the sigma multiplier and the row cap
  /// from it and the engine's table size. `pool` fans EstimateAll's
  /// per-round candidate work out (nullptr = serial). The engine and pool
  /// must outlive the estimator.
  static Result<AdaptiveEstimator> Make(EstimationEngine& engine,
                                        PrecisionTarget target,
                                        ThreadPool* pool = nullptr);

  /// Runs the grow-until-tight loop over the candidates; results are
  /// positionally aligned. The engine's sample afterwards is the grown
  /// (final-fraction) sample.
  Result<AdaptiveBatchResult> EstimateAll(
      std::span<const CandidateConfiguration> candidates);

  /// Estimates `candidate` on the engine's current sample (no growth) and
  /// attaches its interval, target half-width, and convergence flag.
  /// Uncompressed candidates are exact and always converged.
  Result<AdaptiveCandidateResult> EstimateAtCurrentSample(
      const CandidateConfiguration& candidate);

  /// Grows the engine's sample — geometric floor plus the 1/sqrt(r)
  /// extrapolation — until the candidate converges to the precision
  /// target, `done` returns true, or the row budget / fraction cap / round
  /// cap is exhausted. `done` may be null (refine to convergence) and is
  /// consulted every round, so it can stop the loop before convergence.
  /// `min_rows` keeps convergence from being accepted below a
  /// caller-imposed sample-size floor (the lazy advisor uses a
  /// page-coverage floor: a CF' interval can be tight on a sample too
  /// small for the page-granular footprint to be meaningful). A result
  /// that is neither converged-at-floor nor accepted by `done` means the
  /// budget ran out.
  Result<AdaptiveCandidateResult> RefineUntil(
      const CandidateConfiguration& candidate,
      const std::function<bool(const AdaptiveCandidateResult&)>& done,
      uint64_t min_rows = 0);

  /// Row cap derived from target.max_fraction / row_budget over this
  /// engine's table.
  uint64_t row_cap() const { return cap_; }
  /// Sample growths performed through this estimator so far (RefineUntil's
  /// round cap counts these).
  uint32_t growth_steps() const { return growth_steps_; }

 private:
  /// The engine table's `cfest.adaptive.*` children.
  struct Metrics {
    metrics::Counter* rounds;
    metrics::Counter* growth_steps;
    metrics::Counter* rows_sized;
  };

  AdaptiveEstimator(EstimationEngine& engine, PrecisionTarget target,
                    ThreadPool* pool, double num_sigmas);

  /// One candidate's estimate on `epoch` (nullptr = pin the current one):
  /// exact, with no sample, for an uncompressed scheme; otherwise the
  /// footprint sizing, base-metric CF', interval, target half-width, and
  /// convergence flag. `cumulative_rows_sized` covers this estimate only.
  Result<AdaptiveCandidateResult> EstimateCandidate(
      const CandidateConfiguration& candidate, const SampleEpoch* epoch);

  /// One growth step from `rows` toward `needed` rows, floored
  /// geometrically and capped at row_cap(). Returns the grown epoch, or
  /// null when the budget is spent: the sample is at the cap, `rounds` has
  /// reached target.max_rounds, or the table ran out below the cap.
  Result<std::shared_ptr<const SampleEpoch>> Grow(uint64_t rows,
                                                  uint64_t needed,
                                                  uint32_t rounds);

  EstimationEngine* engine_;
  PrecisionTarget target_;
  ThreadPool* pool_;
  double num_sigmas_ = 0.0;
  uint64_t cap_ = 0;
  uint32_t growth_steps_ = 0;
  Metrics metrics_;
};

/// Catalog-level entry point: groups candidates by table_name
/// (CatalogEstimationService::GroupByTable), grows each table's engine
/// independently toward the shared target (per-round work fans across the
/// service's shared pool), and merges the per-table results positionally.
Result<AdaptiveBatchResult> EstimateAllAdaptive(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    const PrecisionTarget& target);

}  // namespace cfest

#endif  // CFEST_ESTIMATOR_ADAPTIVE_H_
