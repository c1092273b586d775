#include "estimator/adaptive.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "index/index.h"

namespace cfest {
namespace {

constexpr const char* kMethodExact = "exact";
constexpr const char* kMethodTheorem1 = "theorem1";
constexpr const char* kMethodGroups = "group_replicates";

Status ValidateTarget(const PrecisionTarget& target) {
  if (!(target.rel_error > 0.0)) {
    return Status::InvalidArgument("rel_error must be positive");
  }
  if (!(target.confidence > 0.0) || !(target.confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0, 1)");
  }
  if (!(target.max_fraction > 0.0) || target.max_fraction > 1.0) {
    return Status::InvalidArgument("max_fraction must lie in (0, 1]");
  }
  if (!(target.growth_factor > 1.0)) {
    return Status::InvalidArgument("growth_factor must be > 1");
  }
  if (!(target.cf_floor > 0.0)) {
    return Status::InvalidArgument("cf_floor must be positive");
  }
  if (target.interval_groups < 2) {
    return Status::InvalidArgument("interval_groups must be >= 2");
  }
  if (target.max_rounds == 0) {
    return Status::InvalidArgument("max_rounds must be >= 1");
  }
  return Status::OK();
}

}  // namespace

bool IsUniformNullSuppressionScheme(const CompressionScheme& scheme) {
  if (scheme.per_column.empty()) {
    return scheme.default_type == CompressionType::kNullSuppression;
  }
  return std::all_of(scheme.per_column.begin(), scheme.per_column.end(),
                     [](CompressionType t) {
                       return t == CompressionType::kNullSuppression;
                     });
}

std::string FormatGrowthSchedule(const std::vector<uint64_t>& rows_per_round) {
  std::string out;
  for (uint64_t rows : rows_per_round) {
    if (!out.empty()) out += " -> ";
    out += std::to_string(rows);
  }
  return out;
}

Result<double> NumSigmasForConfidence(double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0, 1), got " +
                                   std::to_string(confidence));
  }
  // Two-sided normal coverage of +-z sigma is erf(z / sqrt(2)); invert by
  // bisection (erf is monotone; 20 sigma covers any representable level).
  double lo = 0.0, hi = 20.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (std::erf(mid / std::sqrt(2.0)) < confidence) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

uint64_t EstimateNeededSampleRows(double half_width_now, uint64_t rows_now,
                                  double target_half_width) {
  if (rows_now == 0) return 0;
  if (!(target_half_width > 0.0)) return rows_now;
  if (half_width_now <= target_half_width) return rows_now;
  const double ratio = half_width_now / target_half_width;
  const double needed = static_cast<double>(rows_now) * ratio * ratio;
  if (needed >= 1e18) return ~0ull;  // caller clamps to its budget anyway
  return static_cast<uint64_t>(std::ceil(needed));
}

namespace {

/// Unseen-mass floor on a data-dependent half-width (rule of three,
/// generalized): r draws with no rare deviant rows bound such rows'
/// frequency only to -ln(1 - confidence)/r, and one deviant row shifts a
/// bounded per-row contribution by up to 1 — so no data-dependent interval
/// may claim a smaller half-width. Without this, a constant-looking column
/// yields identical group estimates, zero spread, and a zero-width "95%"
/// interval the data cannot support.
double UnseenMassFloor(double num_sigmas, uint64_t rows) {
  const double miss_prob =
      std::erfc(num_sigmas / std::sqrt(2.0));  // two-sided tail mass
  return -std::log(std::max(miss_prob, 1e-300)) /
         static_cast<double>(rows);
}

/// The exact answer for an uncompressed candidate: CF' = 1 with a
/// zero-width interval, from schema arithmetic and no sample. Returns false
/// (and writes nothing) for any other scheme.
bool SetExactInterval(const CandidateConfiguration& candidate,
                      double num_sigmas, double* cf,
                      ConfidenceInterval* interval, std::string* method) {
  if (!IsUncompressedScheme(candidate.scheme)) return false;
  *cf = 1.0;
  *interval = ConfidenceInterval{1.0, 1.0, num_sigmas};
  *method = kMethodExact;
  return true;
}

/// The interval around a sampled candidate's CF' on `epoch`.
Result<ConfidenceInterval> EstimateCandidateIntervalImpl(
    EstimationEngine& engine, const SampleEpoch& epoch,
    const CandidateConfiguration& candidate, double cf, double num_sigmas,
    uint32_t interval_groups, std::string* method) {
  const uint64_t rows = epoch.sample_rows();
  const bool is_ns = IsUniformNullSuppressionScheme(candidate.scheme);

  uint32_t groups = interval_groups;
  if (rows < 2ull * groups) groups = static_cast<uint32_t>(rows / 2);
  if (groups < 2) {
    // Too few rows for replicates; use the worst-case bound (NS's hard
    // guarantee, and conservative-by-construction for everything else on
    // a handful of rows).
    *method = kMethodTheorem1;
    return Theorem1ConfidenceInterval(cf, rows, num_sigmas);
  }

  // Data-dependent width in the style of EmpiricalNsConfidenceInterval:
  // contiguous draw-order groups are i.i.d. replicates of the estimator at
  // rows/g, whose width shrinks as 1/sqrt(r) (Theorems 1-3), so the group
  // spread over sqrt(g) estimates the full-sample sigma. This is what
  // distinguishes an easy (low-variance) column from a hard one — the
  // whole point of adapting the sample size per candidate. The replicate
  // builds depend only on the key set and the sample, so the epoch
  // memoizes them for every scheme ranked on the same key set.
  const SampleCFOptions& base = engine.options().base;
  CFEST_ASSIGN_OR_RETURN(
      std::shared_ptr<const std::vector<Index>> group_indexes,
      epoch.ReplicateIndexes(candidate.index, groups, base.build));
  RunningStats group_cf;
  for (const Index& index : *group_indexes) {
    CFEST_ASSIGN_OR_RETURN(CompressedIndex compressed,
                           index.Compress(candidate.scheme, base.build));
    group_cf.Add(
        MeasureCF(index.stats(), compressed.stats(), base.metric).value);
  }
  const double sigma =
      group_cf.stddev() / std::sqrt(static_cast<double>(groups));
  // Student-t widening for the small replicate count (first-order
  // Cornish-Fisher: t_df(p) ~= z + (z^3 + z) / (4 df)) — g estimates of
  // the spread are not a known sigma.
  const double t_sigmas =
      num_sigmas + (num_sigmas * num_sigmas * num_sigmas + num_sigmas) /
                       (4.0 * static_cast<double>(groups - 1));
  double half = t_sigmas * sigma;
  half = std::max(half, UnseenMassFloor(num_sigmas, rows));
  *method = kMethodGroups;
  if (is_ns) {
    // Theorem 1 caps the NS estimator's sigma at 1/(2 sqrt(r)) regardless
    // of the data — rare values included — so for NS the distribution-free
    // bound overrides both the replicate width and the floor whenever it
    // is narrower.
    const double worst_case =
        num_sigmas * Theorem1StdDevBound(rows);
    if (worst_case < half) {
      half = worst_case;
      *method = kMethodTheorem1;
    }
  }
  ConfidenceInterval ci;
  ci.num_sigmas = num_sigmas;
  ci.lower = cf - half < 0.0 ? 0.0 : cf - half;
  ci.upper = cf + half;
  return ci;
}

/// The sample-row cap the target imposes over an n-row table.
uint64_t RowCapForTarget(const PrecisionTarget& target, uint64_t n) {
  uint64_t cap = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(target.max_fraction * static_cast<double>(n))));
  if (target.row_budget > 0) cap = std::min(cap, target.row_budget);
  return cap;
}

/// Rows the candidate's interval says it needs for its target half-width,
/// by the interval's own shrinkage law: Theorem-1 closed form for the
/// distribution-free bound, linear extrapolation when the unseen-mass
/// floor (1/r) binds, 1/sqrt(r) otherwise.
uint64_t NeededRowsFor(const AdaptiveCandidateResult& r, uint64_t rows,
                       double z) {
  // The upper half-width: unlike (upper - lower) / 2 it is immune to the
  // zero-clamping of the lower bound, which would otherwise understate the
  // width for small-CF candidates and both converge them early and
  // under-extrapolate the rows they need.
  const double half = r.interval.upper - r.cf;
  if (r.interval_method == kMethodTheorem1) {
    return SampleSizeForHalfWidth(r.target_half_width, z);
  }
  if (half <= UnseenMassFloor(z, rows) * 1.000001) {
    // Floor-bound interval: the unseen-mass floor shrinks as 1/r, not
    // 1/sqrt(r), so extrapolate linearly — the quadratic law would
    // overshoot the needed rows by half/target.
    return static_cast<uint64_t>(std::ceil(
        static_cast<double>(rows) * half / r.target_half_width));
  }
  return EstimateNeededSampleRows(half, rows, r.target_half_width);
}

}  // namespace

Result<std::vector<CandidateIntervalResult>> EstimateCandidateIntervals(
    EstimationEngine& engine,
    std::span<const CandidateConfiguration> candidates, double num_sigmas,
    uint32_t interval_groups, ThreadPool* pool) {
  // One pinned epoch for the whole batch: every candidate's CF' and
  // interval come from the same sample snapshot, and the fan-out below
  // never touches the engine mutex.
  CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const SampleEpoch> epoch,
                         engine.PinEpoch());
  std::vector<CandidateIntervalResult> results(candidates.size());
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      candidates.size() > 1 ? pool : nullptr, candidates.size(),
      [&](uint64_t i) -> Status {
        CandidateIntervalResult& r = results[i];
        if (SetExactInterval(candidates[i], num_sigmas, &r.cf, &r.interval,
                             &r.method)) {
          return Status::OK();
        }
        CFEST_ASSIGN_OR_RETURN(
            SampleCFResult est,
            engine.EstimateCFAt(*epoch, candidates[i].index,
                                candidates[i].scheme));
        r.cf = est.cf.value;
        CFEST_ASSIGN_OR_RETURN(
            r.interval,
            EstimateCandidateIntervalImpl(engine, *epoch, candidates[i], r.cf,
                                          num_sigmas, interval_groups,
                                          &r.method));
        return Status::OK();
      }));
  return results;
}

AdaptiveEstimator::AdaptiveEstimator(EstimationEngine& engine,
                                     PrecisionTarget target, ThreadPool* pool,
                                     double num_sigmas)
    : engine_(&engine),
      target_(std::move(target)),
      pool_(pool),
      num_sigmas_(num_sigmas),
      cap_(RowCapForTarget(target_, engine.table().num_rows())) {
  // Resolved once per estimator, so round and sizing call sites never
  // touch the registry; family aggregates keep the process-wide totals.
  metrics::LabelSet labels;
  const std::string& table_name = engine.options().table_name;
  if (!table_name.empty()) labels.emplace_back("table", table_name);
  metrics::MetricRegistry& registry = metrics::MetricRegistry::Global();
  metrics_ = {registry.GetCounter("cfest.adaptive.rounds", labels),
              registry.GetCounter("cfest.adaptive.growth_steps", labels),
              registry.GetCounter("cfest.adaptive.rows_sized", labels)};
}

Result<AdaptiveEstimator> AdaptiveEstimator::Make(EstimationEngine& engine,
                                                  PrecisionTarget target,
                                                  ThreadPool* pool) {
  CFEST_RETURN_NOT_OK(ValidateTarget(target));
  CFEST_ASSIGN_OR_RETURN(const double z,
                         NumSigmasForConfidence(target.confidence));
  return AdaptiveEstimator(engine, std::move(target), pool, z);
}

Result<AdaptiveCandidateResult> AdaptiveEstimator::EstimateCandidate(
    const CandidateConfiguration& c, const SampleEpoch* epoch) {
  AdaptiveCandidateResult r;
  if (SetExactInterval(c, num_sigmas_, &r.cf, &r.interval,
                       &r.interval_method)) {
    CFEST_ASSIGN_OR_RETURN(r.sized, engine_->EstimateExact(c));
    r.converged = true;
    return r;
  }
  // Pinning draws the sample on first use.
  std::shared_ptr<const SampleEpoch> pinned;
  if (epoch == nullptr) {
    CFEST_ASSIGN_OR_RETURN(pinned, engine_->PinEpoch());
    epoch = pinned.get();
  }
  trace::Span span("adaptive.estimate_candidate");
  // One cached-index build + compression yields both the base-metric CF'
  // (controlled quantity) and the page-metric footprint (what
  // EstimationEngine::EstimateAt reports). Everything reads the pinned epoch
  // — including the full-index scaling's row count — so the result is
  // immune to appends streaming in concurrently.
  CFEST_ASSIGN_OR_RETURN(SampleCFResult est,
                         engine_->EstimateCFAt(*epoch, c.index, c.scheme));
  CFEST_ASSIGN_OR_RETURN(
      const uint64_t uncompressed,
      EstimateUncompressedIndexBytes(engine_->table(), c.index,
                                     engine_->options().base.build.page_size,
                                     epoch->table_rows()));
  const double page_cf =
      MeasureCF(est.sample_uncompressed, est.sample_compressed,
                SizeMetric::kPageBytes)
          .value;
  r.sized.config = c;
  r.sized.estimated_cf = page_cf;
  r.sized.uncompressed_bytes = uncompressed;
  r.sized.estimated_bytes = static_cast<uint64_t>(
      std::llround(page_cf * static_cast<double>(uncompressed)));
  r.sized.sample_rows = est.sample_rows;
  r.cf = est.cf.value;
  r.rows_sampled = est.sample_rows;
  r.cumulative_rows_sized = est.sample_rows;
  metrics_.rows_sized->Add(est.sample_rows);
  r.target_half_width = target_.rel_error * std::max(r.cf, target_.cf_floor);
  CFEST_ASSIGN_OR_RETURN(
      r.interval,
      EstimateCandidateIntervalImpl(*engine_, *epoch, c, r.cf, num_sigmas_,
                                    target_.interval_groups,
                                    &r.interval_method));
  r.rounds = growth_steps_;
  r.converged = r.interval.upper - r.cf <= r.target_half_width;
  return r;
}

Result<std::shared_ptr<const SampleEpoch>> AdaptiveEstimator::Grow(
    uint64_t rows, uint64_t needed, uint32_t rounds) {
  if (rows >= cap_ || rounds >= target_.max_rounds) {
    return std::shared_ptr<const SampleEpoch>();
  }
  // Geometric floor guarantees O(log) rounds; the extrapolated need may
  // jump further in one step.
  const uint64_t geometric = static_cast<uint64_t>(
      std::ceil(static_cast<double>(rows) * target_.growth_factor));
  CFEST_ASSIGN_OR_RETURN(
      std::shared_ptr<const SampleEpoch> grown,
      engine_->GrowSampleToEpoch(std::min(cap_, std::max(needed, geometric))));
  metrics_.growth_steps->Increment();
  ++growth_steps_;
  // Table exhausted below the nominal cap.
  if (grown->sample_rows() <= rows) grown.reset();
  return grown;
}

Result<AdaptiveBatchResult> AdaptiveEstimator::EstimateAll(
    std::span<const CandidateConfiguration> candidates) {
  AdaptiveBatchResult batch;
  batch.candidates.resize(candidates.size());
  AdaptiveTableReport report;
  if (!candidates.empty()) report.table_name = candidates[0].table_name;

  // Uncompressed candidates are exact — no sampling (no epoch, no draw),
  // converged at once.
  std::vector<size_t> active;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (IsUncompressedScheme(candidates[i].scheme)) {
      CFEST_ASSIGN_OR_RETURN(batch.candidates[i],
                             EstimateCandidate(candidates[i], nullptr));
    } else {
      active.push_back(i);
    }
  }

  if (!active.empty()) {
    // First round runs on the engine's base-fraction draw, floored at
    // min_rows so the replicate intervals have something to work with.
    // Each round pins the epoch its growth produced and estimates every
    // candidate against that one snapshot — the round is immune to
    // concurrent appends, and the fan-out never touches the engine mutex.
    CFEST_ASSIGN_OR_RETURN(
        std::shared_ptr<const SampleEpoch> epoch,
        engine_->GrowSampleToEpoch(
            std::min(cap_, std::max<uint64_t>(1, target_.min_rows))));

    while (true) {
      trace::Span round_span("adaptive.round");
      ++report.rounds;
      metrics_.rounds->Increment();
      const uint64_t rows = epoch->sample_rows();
      report.rows_per_round.push_back(rows);
      const uint32_t round = report.rounds;

      CFEST_RETURN_NOT_OK(StatusParallelFor(
          active.size() > 1 ? pool_ : nullptr, active.size(),
          [&](uint64_t k) -> Status {
            const size_t i = active[static_cast<size_t>(k)];
            AdaptiveCandidateResult& r = batch.candidates[i];
            // Re-estimated each round; the cumulative counter sums the
            // per-round sizing work (attribution that survives convergence
            // dropout).
            const uint64_t sized_before = r.cumulative_rows_sized;
            CFEST_ASSIGN_OR_RETURN(
                r, EstimateCandidate(candidates[i], epoch.get()));
            r.cumulative_rows_sized += sized_before;
            r.rounds = round;
            return Status::OK();
          }));

      // Converged candidates drop out; the rest vote on the next size.
      std::vector<size_t> still_active;
      uint64_t max_needed = 0;
      for (size_t i : active) {
        const AdaptiveCandidateResult& r = batch.candidates[i];
        if (r.converged) continue;
        max_needed = std::max(max_needed, NeededRowsFor(r, rows, num_sigmas_));
        still_active.push_back(i);
      }
      active = std::move(still_active);
      if (active.empty()) break;
      CFEST_ASSIGN_OR_RETURN(epoch, Grow(rows, max_needed, report.rounds));
      if (epoch == nullptr) {
        report.budget_exhausted = true;
        break;
      }
    }
  }

  report.final_sample_rows = engine_->sample_rows();
  batch.total_sample_rows = report.final_sample_rows;
  batch.rounds = report.rounds;
  batch.budget_exhausted = report.budget_exhausted;
  batch.tables.push_back(std::move(report));
  return batch;
}

Result<AdaptiveCandidateResult> AdaptiveEstimator::EstimateAtCurrentSample(
    const CandidateConfiguration& candidate) {
  return EstimateCandidate(candidate, nullptr);
}

Result<AdaptiveCandidateResult> AdaptiveEstimator::RefineUntil(
    const CandidateConfiguration& candidate,
    const std::function<bool(const AdaptiveCandidateResult&)>& done,
    uint64_t min_rows) {
  // Each estimate's cumulative counter covers only that one estimate;
  // carry the running total across iterations and stamp it before every
  // return.
  uint64_t cumulative_rows = 0;
  while (true) {
    CFEST_ASSIGN_OR_RETURN(AdaptiveCandidateResult r,
                           EstimateCandidate(candidate, nullptr));
    cumulative_rows += r.cumulative_rows_sized;
    r.cumulative_rows_sized = cumulative_rows;
    const uint64_t rows = r.rows_sampled;
    // Uncompressed candidates are exact: no sample to grow.
    if (IsUncompressedScheme(candidate.scheme)) return r;
    if (r.converged && rows >= min_rows) return r;
    if (done != nullptr && done(r)) return r;
    // The round loop's schedule with this candidate as the only voter. A
    // converged-but-below-floor candidate grows straight to the floor.
    const uint64_t needed =
        r.converged ? min_rows
                    : std::max(NeededRowsFor(r, rows, num_sigmas_), min_rows);
    CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const SampleEpoch> grown,
                           Grow(rows, needed, growth_steps_));
    if (grown == nullptr) return r;  // budget
  }
}

Result<AdaptiveBatchResult> EstimateAllAdaptive(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    const PrecisionTarget& target) {
  CFEST_ASSIGN_OR_RETURN(
      std::vector<CatalogEstimationService::TableGroup> groups,
      service.GroupByTable(candidates));

  // The per-table loops are fully independent (separate engines, separate
  // samples), so with several tables the loops themselves fan across the
  // shared pool, each running its candidates serially; a single-table
  // batch instead keeps the fan-out inside that table's round loop. The
  // pool is never nested either way.
  ThreadPool* pool =
      service.options().num_threads == 1 ? nullptr : service.shared_pool();
  const bool fan_tables = groups.size() > 1;
  std::vector<AdaptiveBatchResult> subs(groups.size());
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      fan_tables ? pool : nullptr, groups.size(), [&](uint64_t g) -> Status {
        const CatalogEstimationService::TableGroup& group = groups[g];
        std::vector<CandidateConfiguration> members;
        members.reserve(group.members.size());
        for (size_t i : group.members) members.push_back(candidates[i]);
        CFEST_ASSIGN_OR_RETURN(
            AdaptiveEstimator estimator,
            AdaptiveEstimator::Make(*group.engine, target,
                                    fan_tables ? nullptr : pool));
        CFEST_ASSIGN_OR_RETURN(subs[g], estimator.EstimateAll(members));
        return Status::OK();
      }));

  AdaptiveBatchResult merged;
  merged.candidates.resize(candidates.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<size_t>& members = groups[g].members;
    for (size_t k = 0; k < members.size(); ++k) {
      merged.candidates[members[k]] = std::move(subs[g].candidates[k]);
    }
    AdaptiveTableReport report = std::move(subs[g].tables[0]);
    report.table_name = groups[g].engine->options().table_name;
    merged.total_sample_rows += report.final_sample_rows;
    merged.rounds = std::max(merged.rounds, report.rounds);
    merged.budget_exhausted =
        merged.budget_exhausted || report.budget_exhausted;
    merged.tables.push_back(std::move(report));
  }
  return merged;
}

}  // namespace cfest
