// tpch_advise: in-memory catalog -> recommendation under a storage bound.
//
// Ingest is out of the path, so sampling, index, compression, the adaptive
// estimator and the advisor carry all the time. One closed-loop client
// runs four eager requests (adaptive estimation of every candidate, then
// exact selection) per lazy request (interval-driven search that refines
// candidates only as its decisions need). Each request builds a fresh
// service with its own sample seed, over one of three catalogs, so samples
// and sample indexes are paid for every time; with 5 schemes per key set
// the sample-index cache is hit about 80% of the time.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "advisor/advisor.h"
#include "advisor/search.h"
#include "common.h"
#include "common/trace.h"
#include "datagen/tpch/tables.h"
#include "estimator/adaptive.h"
#include "estimator/service.h"

namespace perfbench {
namespace {

using cfest::AdvisorRecommendation;
using cfest::Status;

/// Starting fraction of the adaptive estimator and the lazy search.
constexpr double kBaseFraction = 0.01;
const cfest::PrecisionTarget kTarget{0.02, 0.95};

/// Catalogs a run spreads its requests over. Lazy latency follows the data:
/// on one catalog it is steady from request to request, but from one
/// catalog seed to the next it moves by about 12%.
constexpr int kCatalogs = 3;

/// The `i`-th seed derived from the run's seed: catalog i's generator seed,
/// and the service seed of request i of a kind. Every request draws its own
/// samples: eager latency follows the sample draw (over draws its quartiles
/// sit 15% either side of the median, and about one draw in 15 grows the
/// sample ten-fold and takes 1.5-2.5 s), so a run that repeated one draw
/// would measure that draw rather than the program.
uint64_t DerivedSeed(uint64_t seed, uint64_t i) {
  return seed * 1000003 + i;
}

/// One estimation thread. On a few shared cores a fan-out over every core
/// waits for whichever worker the host slowed: on one sample draw, at
/// nproc threads eager requests of one run spread 0.08-0.14 s and lazy
/// ones 1.2-1.7 s; at one thread 0.13-0.15 s and 1.39-1.50 s, with the
/// eager median 25% higher and the lazy one unchanged.
cfest::CatalogEstimationServiceOptions ServiceOptions(uint64_t seed) {
  cfest::CatalogEstimationServiceOptions options;
  options.base.fraction = kBaseFraction;
  options.seed = seed;
  options.num_threads = 1;
  return options;
}

/// Half of C's best-per-index bytes at the base fraction: scarce enough
/// that both selection and refinement have work.
cfest::Result<uint64_t> StorageBound(
    const cfest::Catalog& catalog,
    const std::vector<CandidateConfiguration>& c, uint64_t seed) {
  cfest::CatalogEstimationService service(catalog, ServiceOptions(seed));
  CFEST_ASSIGN_OR_RETURN(std::vector<cfest::SizedCandidate> sized,
                         service.EstimateAll(c));
  std::map<std::string, uint64_t> best;
  for (const cfest::SizedCandidate& s : sized) {
    const std::string key = cfest::CandidateSelectionKey(s.config);
    auto it = best.find(key);
    if (it == best.end() || s.estimated_bytes < it->second) {
      best[key] = s.estimated_bytes;
    }
  }
  uint64_t total = 0;
  for (const auto& [key, bytes] : best) total += bytes;
  return total / 2;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Mean of the values between the first and third quartile (inclusive):
/// a typical request's cost, which the rare very slow draws do not decide.
double InterquartileMean(const std::vector<double>& values) {
  const double q1 = Quantile(values, 0.25);
  const double q3 = Quantile(values, 0.75);
  std::vector<double> middle;
  for (double v : values) {
    if (v >= q1 && v <= q3) middle.push_back(v);
  }
  return Mean(middle);
}

/// The recommendation's invariants: within the bound, totals consistent,
/// at most one configuration per (table, index).
void CheckRecommendation(const char* what, const AdvisorRecommendation& rec,
                         uint64_t bound, RunResult* result) {
  uint64_t bytes = 0;
  double benefit = 0.0;
  std::set<std::string> keys;
  for (const cfest::SizedCandidate& s : rec.selected) {
    bytes += s.estimated_bytes;
    benefit += s.config.benefit;
    if (!keys.insert(cfest::CandidateSelectionKey(s.config)).second) {
      result->Fail(std::string(what) + " selected two configurations of " +
                   s.config.index.name);
    }
  }
  if (rec.total_bytes > bound || bytes != rec.total_bytes) {
    result->Fail(std::string(what) + " total_bytes " +
                 std::to_string(rec.total_bytes) + " (selected sum " +
                 std::to_string(bytes) + ") against bound " +
                 std::to_string(bound));
  }
  if (std::abs(benefit - rec.total_benefit) > 1e-6 * (1.0 + benefit)) {
    result->Fail(std::string(what) + " total_benefit is not its selection's");
  }
}

/// The selection as a comparable value (for the determinism check).
std::vector<std::string> SelectionKeys(const AdvisorRecommendation& rec) {
  std::vector<std::string> keys;
  for (const cfest::SizedCandidate& s : rec.selected) {
    keys.push_back(s.config.index.name + "/" + SchemeName(s.config) + "/" +
                   std::to_string(s.estimated_bytes));
  }
  return keys;
}

struct Outcome {
  bool ok = false;
  double seconds = 0.0;
  AdvisorRecommendation rec;
};

/// advise_eager: adaptive estimation of all of C, then exact selection.
/// Traced, its two phases run as separate public calls (the same work as
/// AdviseConfigurations with a target).
Outcome Eager(const cfest::Catalog& catalog,
              const std::vector<CandidateConfiguration>& c, uint64_t bound,
              uint64_t seed, bool traced, RunResult* result) {
  Outcome out;
  const auto start = Now();
  cfest::CatalogEstimationService service(catalog, ServiceOptions(seed));
  if (!traced) {
    auto rec = cfest::AdviseConfigurations(service, c, bound, kTarget,
                                           cfest::AdvisorStrategy::kLazy);
    out.seconds = Seconds(start, Now());
    if (!rec.ok()) {
      result->Fail("advise_eager: " + rec.status().ToString());
      return out;
    }
    out.rec = std::move(*rec);
    out.ok = true;
    return out;
  }
  LayerRecorder& recorder = LayerRecorder::Global();
  for (const char* table : kCandidateTables) {
    auto engine = service.Engine(table);
    if (!engine.ok()) {
      result->Fail("engine: " + engine.status().ToString());
      return out;
    }
    LayerSpan span("sampling.draw");
    auto epoch = (*engine)->PinEpoch();
    if (epoch.ok()) {
      recorder.Add("sampling.rows_sampled",
                   static_cast<double>((*epoch)->sample_rows()));
    }
  }
  cfest::Result<cfest::AdaptiveBatchResult> adaptive =
      Status::Internal("not run");
  {
    LayerSpan span("estimator.adaptive");
    adaptive = cfest::EstimateAllAdaptive(service, c, kTarget);
  }
  if (!adaptive.ok()) {
    result->Fail("advise_eager: " + adaptive.status().ToString());
    return out;
  }
  uint64_t rows_sized = 0;
  for (const cfest::AdaptiveCandidateResult& r : adaptive->candidates) {
    rows_sized += r.cumulative_rows_sized;
  }
  recorder.Add("estimator.adaptive_rounds", adaptive->rounds);
  recorder.Add("estimator.rows_sized", static_cast<double>(rows_sized));
  std::vector<cfest::SizedCandidate> sized;
  for (const cfest::AdaptiveCandidateResult& r : adaptive->candidates) {
    sized.push_back(r.sized);
  }
  cfest::Result<AdvisorRecommendation> rec = Status::Internal("not run");
  {
    LayerSpan span("advisor.select");
    rec = cfest::SelectConfigurations(sized, bound,
                                      cfest::AdvisorStrategy::kLazy);
  }
  out.seconds = Seconds(start, Now());
  if (!rec.ok()) {
    result->Fail("advise_eager: " + rec.status().ToString());
    return out;
  }
  RecordIndexStats(service);
  out.rec = std::move(*rec);
  out.ok = true;
  return out;
}

/// advise_lazy: the interval-driven branch-and-bound.
Outcome Lazy(const cfest::Catalog& catalog,
             const std::vector<CandidateConfiguration>& c, uint64_t bound,
             uint64_t seed, bool traced, RunResult* result) {
  Outcome out;
  const auto start = Now();
  cfest::CatalogEstimationService service(catalog, ServiceOptions(seed));
  cfest::LazyAdvisorStats stats;
  cfest::Result<AdvisorRecommendation> rec = Status::Internal("not run");
  {
    std::optional<LayerSpan> span;
    if (traced) span.emplace("advisor.lazy");
    rec = cfest::AdviseConfigurationsLazy(service, c, bound, kTarget, &stats);
  }
  out.seconds = Seconds(start, Now());
  if (!rec.ok()) {
    result->Fail("advise_lazy: " + rec.status().ToString());
    return out;
  }
  if (traced) {
    LayerRecorder& recorder = LayerRecorder::Global();
    const size_t candidates = std::max<size_t>(1, stats.candidates);
    recorder.Add("advisor.refined_ratio",
                 static_cast<double>(stats.refined) /
                     static_cast<double>(candidates));
    recorder.Add("advisor.rows_sized",
                 static_cast<double>(stats.total_rows_sized));
    recorder.Add("advisor.nodes_visited",
                 static_cast<double>(stats.nodes_visited));
  }
  out.rec = std::move(*rec);
  out.ok = true;
  return out;
}

}  // namespace

RunResult RunTpchAdvise(const Options& options) {
  RunResult result;
  const std::vector<CandidateConfiguration> c = BuildCandidates();
  // setup_s is the median time to generate one catalog.
  std::vector<std::unique_ptr<cfest::Catalog>> catalogs;
  std::vector<uint64_t> bounds;
  std::vector<double> setups;
  for (int k = 0; k < kCatalogs; ++k) {
    cfest::tpch::TpchOptions tpch;
    tpch.scale_factor = kScaleFactor;
    tpch.seed = DerivedSeed(options.seed, k);
    const auto start = Now();
    auto generated = cfest::tpch::GenerateCatalog(tpch);
    if (!generated.ok()) {
      result.Fail("set-up: " + generated.status().ToString());
      return result;
    }
    setups.push_back(Seconds(start, Now()));
    auto bound = StorageBound(**generated, c, options.seed);
    if (!bound.ok()) {
      result.Fail("storage bound: " + bound.status().ToString());
      return result;
    }
    catalogs.push_back(std::move(*generated));
    bounds.push_back(*bound);
  }

  LayerRecorder& recorder = LayerRecorder::Global();
  // Peak memory is taken per request: freed heap goes back to the system
  // and VmHWM is reset before each one. peak_rss_mb is the median, since
  // the run's overall peak would be that of its rare ten-fold sample.
  std::vector<double> peak_mb;
  // Request i of a kind runs on catalog i mod kCatalogs. Every
  // recommendation must be valid. Request 0 of each kind is run once
  // untimed to warm up and once more at the end: repeating a request must
  // repeat its selection.
  auto request = [&](decltype(&Eager) kind, const char* what, uint64_t i,
                     bool traced) {
    const size_t k = i % kCatalogs;
    recorder.BeginRequest();
    malloc_trim(0);
    ResetPeakRss();
    Outcome out = kind(*catalogs[k], c, bounds[k],
                       DerivedSeed(options.seed, i), traced, &result);
    peak_mb.push_back(PeakRssMb());
    ++result.attempted;
    if (out.ok) CheckRecommendation(what, out.rec, bounds[k], &result);
    return out;
  };

  const Outcome eager_first = request(&Eager, "advise_eager", 0, false);
  const Outcome lazy_first = request(&Lazy, "advise_lazy", 0, false);
  std::vector<double> eager_s, lazy_s, traced_eager_s, untraced_eager_s;
  // Each cycle runs kEagerPerLazy eager requests and one lazy one, which
  // take about equal time: eager needs many sample draws for a steady
  // median, lazy needs every catalog several times. Traced runs time the
  // first cycles untraced, then trace every request.
  constexpr int kEagerPerLazy = 4;
  constexpr int kUntracedCycles = 2;
  uint64_t eager_next = 1, lazy_next = 1;
  const auto window = Now();
  for (int cycle = 0; cycle < (options.trace ? 2 * kUntracedCycles : 3) ||
                      Seconds(window, Now()) < options.seconds;
       ++cycle) {
    const bool traced = options.trace && cycle >= kUntracedCycles;
    cfest::trace::SetEnabled(traced);
    for (int i = 0; i < kEagerPerLazy; ++i) {
      const Outcome eager =
          request(&Eager, "advise_eager", eager_next++, traced);
      if (!eager.ok) continue;
      eager_s.push_back(eager.seconds);
      (traced ? traced_eager_s : untraced_eager_s).push_back(eager.seconds);
    }
    const Outcome lazy = request(&Lazy, "advise_lazy", lazy_next++, traced);
    if (lazy.ok) lazy_s.push_back(lazy.seconds);
  }
  cfest::trace::SetEnabled(false);
  if (eager_first.ok && lazy_first.ok) {
    const Outcome eager_again = request(&Eager, "advise_eager", 0, false);
    const Outcome lazy_again = request(&Lazy, "advise_lazy", 0, false);
    if (eager_again.ok &&
        SelectionKeys(eager_again.rec) != SelectionKeys(eager_first.rec)) {
      result.Fail("advise_eager selection changed on a repeated request");
    }
    if (lazy_again.ok &&
        SelectionKeys(lazy_again.rec) != SelectionKeys(lazy_first.rec)) {
      result.Fail("advise_lazy selection changed on a repeated request");
    }
  }

  if (options.trace) {
    const double requests = static_cast<double>(
        traced_eager_s.size() + traced_eager_s.size() / kEagerPerLazy);
    std::map<std::string, double> extra = {
        {"index.cache_hit_ratio", RecordedCacheHitRatio()},
        {"trace.overhead_ratio",
         Median(traced_eager_s) / Median(untraced_eager_s)},
    };
    FoldProgramSpans(requests, &extra);
    EmitPerLayer(extra, &result);
    return result;
  }
  result.Report("advise_eager_s", Median(eager_s), "s");
  result.Report("advise_eager_mean_s", Mean(eager_s), "s");
  result.Report("advise_eager_max_s", Quantile(eager_s, 1.0), "s");
  result.Report("request_peak_rss_max_mb", Quantile(peak_mb, 1.0), "MB");
  result.Report("advise_lazy_s", Median(lazy_s), "s");
  result.Report("advise_benefit", lazy_first.rec.total_benefit, "benefit");
  result.Report("advise_eager_benefit", eager_first.rec.total_benefit,
                "benefit");
  result.Report("storage_bound_mb", static_cast<double>(bounds[0]) / 1e6,
                "MB");
  result.Report("requests", static_cast<double>(result.attempted), "count");
  result.Add("setup_s", Median(setups), "s");
  result.Add("peak_rss_mb", Median(peak_mb), "MB");
  result.Add("primary_ms", Median(eager_s) * 1e3, "ms");
  result.Add("secondary_ms", Median(lazy_s) * 1e3, "ms");
  result.Add("primary_per_s", 1.0 / InterquartileMean(eager_s), "1/s");
  return result;
}

}  // namespace perfbench
