// serve_appends: estimate reads beside appends on a long-lived service.
//
// lineitem and orders sit in memory under one service in reservoir
// maintenance mode (f = 0.05, serial per request). Three closed-loop
// readers each send EstimateAll over a seeded batch of 16 candidates of C
// (batches overlap across readers, so the coalescer has work). One
// open-loop appender runs Catalog::AppendRows + NotifyAppend on orders on
// a fixed schedule, fast enough that a read usually spans a refresh. It is
// the only workload that exercises the coalescer, epoch publishing,
// reservoir refresh and the index-cache invalidation every refresh causes.
//
// After quiescing, the service's estimates must equal those of fresh
// reservoir engines over the grown tables (incremental == re-draw).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "common.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "datagen/tpch/tables.h"
#include "estimator/service.h"

namespace perfbench {
namespace {

using cfest::Status;

constexpr double kFraction = 0.05;
constexpr int kReaders = 3;
constexpr size_t kBatch = 16;
/// Append schedule: kAppendRows orders rows every kAppendInterval.
constexpr auto kAppendInterval = std::chrono::milliseconds(20);
constexpr size_t kAppendRows = 200;
constexpr auto kAppendSpin = std::chrono::microseconds(500);
/// Append rows come from an orders table generated at another seed.
constexpr double kAppendSourceScale = 0.01;

struct Served {
  std::unique_ptr<cfest::Catalog> catalog;
  std::unique_ptr<cfest::CatalogEstimationService> service;
  std::vector<cfest::Row> append_rows;
};

cfest::CatalogEstimationServiceOptions ServiceOptions(uint64_t seed) {
  cfest::CatalogEstimationServiceOptions options;
  options.base.fraction = kFraction;
  options.seed = seed;
  options.num_threads = 1;
  options.maintain_reservoirs = true;
  return options;
}

/// Set-up: tables, append rows, the service and its first draws, and one
/// EstimateAll over C so lineitem's sample indexes are warm.
cfest::Result<Served> SetUp(uint64_t seed,
                            const std::vector<CandidateConfiguration>& c) {
  Served served;
  cfest::tpch::TpchOptions tpch;
  tpch.scale_factor = kScaleFactor;
  tpch.seed = seed;
  served.catalog = std::make_unique<cfest::Catalog>();
  CFEST_ASSIGN_OR_RETURN(auto lineitem, cfest::tpch::GenerateLineitem(tpch));
  CFEST_RETURN_NOT_OK(
      served.catalog->AddTable("lineitem", std::move(lineitem)));
  CFEST_ASSIGN_OR_RETURN(auto orders, cfest::tpch::GenerateOrders(tpch));
  CFEST_RETURN_NOT_OK(served.catalog->AddTable("orders", std::move(orders)));

  cfest::tpch::TpchOptions source_options;
  source_options.scale_factor = kAppendSourceScale;
  source_options.seed = seed + 0x9E3779B9ull;
  CFEST_ASSIGN_OR_RETURN(auto source,
                         cfest::tpch::GenerateOrders(source_options));
  served.append_rows.reserve(source->num_rows());
  for (cfest::RowId id = 0; id < source->num_rows(); ++id) {
    CFEST_ASSIGN_OR_RETURN(cfest::Row row, source->DecodeRow(id));
    served.append_rows.push_back(std::move(row));
  }

  served.service = std::make_unique<cfest::CatalogEstimationService>(
      *served.catalog, ServiceOptions(seed));
  for (const char* table : {"lineitem", "orders"}) {
    CFEST_ASSIGN_OR_RETURN(cfest::EstimationEngine * engine,
                           served.service->Engine(table));
    LayerRecorder::Global().BeginRequest();
    LayerSpan span("sampling.draw");
    CFEST_ASSIGN_OR_RETURN(auto epoch, engine->PinEpoch());
    LayerRecorder::Global().Add("sampling.rows_sampled",
                                     static_cast<double>(epoch->sample_rows()));
  }
  CFEST_RETURN_NOT_OK(served.service->EstimateAll(c).status());
  return served;
}

/// Reader `reader`'s k-th batch: kBatch distinct candidates of C.
std::vector<CandidateConfiguration> Batch(
    const std::vector<CandidateConfiguration>& c, uint64_t seed, int reader,
    uint64_t k) {
  cfest::Random rng(seed * 1000003 + static_cast<uint64_t>(reader) * 7919 + k);
  std::vector<size_t> order(c.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = 0; i < kBatch; ++i) {
    std::swap(order[i], order[i + rng.NextBounded(order.size() - i)]);
  }
  std::vector<CandidateConfiguration> batch;
  for (size_t i = 0; i < kBatch; ++i) batch.push_back(c[order[i]]);
  return batch;
}

struct Window {
  std::vector<double> read_s;
  std::vector<double> append_s;  // from due time to refresh done
  std::vector<double> late_s;    // start minus due time
  uint64_t failed = 0;
  double seconds = 0.0;
};

/// Serves reads and appends for `seconds`, then quiesces.
Window Serve(Served& served, const std::vector<CandidateConfiguration>& c,
             uint64_t seed, double seconds, uint64_t* append_cursor,
             uint64_t* read_counter) {
  Window w;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed{0};
  std::vector<std::vector<double>> reads(kReaders);
  const auto start = Now();
  const auto end =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const std::vector<CandidateConfiguration> batch =
            Batch(c, seed, r, *read_counter + k);
        LayerRecorder::Global().BeginRequest();
        const auto t0 = Now();
        cfest::Result<std::vector<cfest::SizedCandidate>> sized =
            Status::Internal("not run");
        {
          LayerSpan span("estimator.estimate_all");
          sized = served.service->EstimateAll(batch);
        }
        const double s = Seconds(t0, Now());
        if (!sized.ok() || sized->size() != batch.size()) {
          failed.fetch_add(1);
          std::fprintf(stderr, "read failed: %s\n",
                       sized.ok() ? "short result"
                                  : sized.status().ToString().c_str());
          continue;
        }
        reads[r].push_back(s);
      }
    });
  }
  // The open-loop appender, on this thread.
  const size_t pool = served.append_rows.size();
  for (uint64_t k = 0;; ++k) {
    const auto due = start + k * kAppendInterval;
    if (due >= end) break;
    // Sleep to just short of the due time, then spin: a sleep alone wakes
    // up to a scheduler tick late, which would swamp a sub-ms append.
    std::this_thread::sleep_until(due - kAppendSpin);
    while (Now() < due) {
    }
    const auto began = Now();
    std::vector<cfest::Row> rows;
    for (size_t i = 0; i < kAppendRows; ++i) {
      rows.push_back(served.append_rows[(*append_cursor + i) % pool]);
    }
    *append_cursor += kAppendRows;
    LayerRecorder::Global().BeginRequest();
    cfest::Result<cfest::RowRange> range = Status::Internal("not run");
    {
      LayerSpan span("storage.append");
      range = served.catalog->AppendRows("orders", rows);
    }
    Status st = range.status();
    if (st.ok()) {
      LayerSpan span("sampling.refresh");
      st = served.service->NotifyAppend("orders", *range);
    }
    if (!st.ok()) {
      failed.fetch_add(1);
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      continue;
    }
    w.append_s.push_back(Seconds(due, Now()));
    w.late_s.push_back(Seconds(due, began));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  w.seconds = Seconds(start, Now());
  w.failed = failed.load();
  for (const auto& r : reads) {
    w.read_s.insert(w.read_s.end(), r.begin(), r.end());
  }
  *read_counter += 1000000;
  return w;
}

/// Incremental == re-draw: the quiesced service's estimates over C equal
/// fresh reservoir engines' over the grown tables, field for field.
void CheckAgainstRedraw(Served& served,
                        const std::vector<CandidateConfiguration>& c,
                        RunResult* result) {
  auto final_estimates = served.service->EstimateAll(c);
  if (!final_estimates.ok()) {
    result->Fail("final EstimateAll: " + final_estimates.status().ToString());
    return;
  }
  std::map<std::string, std::vector<size_t>> by_table;
  for (size_t i = 0; i < c.size(); ++i) by_table[c[i].table_name].push_back(i);
  for (const auto& [name, idxs] : by_table) {
    auto engine = served.service->Engine(name);
    auto table = served.catalog->GetTable(name);
    if (!engine.ok() || !table.ok()) {
      result->Fail("no engine for " + name);
      return;
    }
    cfest::EstimationEngineOptions fresh_options;
    fresh_options.base = served.service->options().base;
    fresh_options.seed = served.service->SeedForTable(name);
    fresh_options.num_threads = 1;
    fresh_options.maintain_reservoir = true;
    fresh_options.reservoir_capacity = (*engine)->sample_rows();
    cfest::EstimationEngine fresh(**table, fresh_options);
    std::vector<CandidateConfiguration> configs;
    for (size_t i : idxs) configs.push_back(c[i]);
    auto redrawn = fresh.EstimateAll(configs);
    if (!redrawn.ok()) {
      result->Fail("re-draw EstimateAll: " + redrawn.status().ToString());
      return;
    }
    for (size_t k = 0; k < idxs.size(); ++k) {
      const cfest::SizedCandidate& a = (*final_estimates)[idxs[k]];
      const cfest::SizedCandidate& b = (*redrawn)[k];
      if (a.estimated_cf != b.estimated_cf ||
          a.estimated_bytes != b.estimated_bytes ||
          a.uncompressed_bytes != b.uncompressed_bytes ||
          a.sample_rows != b.sample_rows) {
        result->Fail("incremental estimate of " + c[idxs[k]].index.name + " " +
                     SchemeName(c[idxs[k]]) + " differs from a re-draw over " +
                     "the grown table");
        return;
      }
    }
  }
}

cfest::metrics::HistogramData WaitHistogram() {
  const cfest::metrics::MetricsSnapshot snapshot =
      cfest::metrics::MetricRegistry::Global().Snapshot();
  auto it = snapshot.histograms.find("cfest.coalescer.wait_ns");
  return it == snapshot.histograms.end() ? cfest::metrics::HistogramData{}
                                         : it->second;
}

}  // namespace

RunResult RunServeAppends(const Options& options) {
  RunResult result;
  const std::vector<CandidateConfiguration> c = BuildCandidates();
  cfest::trace::SetEnabled(options.trace);
  Served served;
  std::vector<double> setups;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    served = Served{};
    const auto start = Now();
    auto set_up = SetUp(options.seed, c);
    if (!set_up.ok()) {
      result.Fail("set-up: " + set_up.status().ToString());
      return result;
    }
    served = std::move(*set_up);
    setups.push_back(Seconds(start, Now()));
  }
  cfest::trace::SetEnabled(false);

  ResetPeakRss();
  const cfest::CatalogEstimationService::Stats before = served.service->stats();
  const cfest::metrics::HistogramData wait_before = WaitHistogram();
  uint64_t append_cursor = 0, read_counter = 0;
  Window w;
  Window untraced;
  if (options.trace) {
    // Half the window untraced, half traced, for the overhead ratio.
    untraced = Serve(served, c, options.seed, options.seconds / 2,
                     &append_cursor, &read_counter);
    cfest::trace::Reset();
    cfest::trace::SetEnabled(true);
    w = Serve(served, c, options.seed, options.seconds / 2, &append_cursor,
              &read_counter);
    cfest::trace::SetEnabled(false);
  } else {
    w = Serve(served, c, options.seed, options.seconds, &append_cursor,
              &read_counter);
  }
  const double peak_mb = PeakRssMb();
  const cfest::CatalogEstimationService::Stats after = served.service->stats();
  const uint64_t reads = w.read_s.size() + untraced.read_s.size();
  const uint64_t appends = w.append_s.size() + untraced.append_s.size();
  result.attempted = reads + appends + w.failed + untraced.failed;
  result.failed = w.failed + untraced.failed;
  if (result.failed > 0) result.correct = false;
  CheckAgainstRedraw(served, c, &result);

  const double late_max =
      w.late_s.empty() ? 0.0
                       : *std::max_element(w.late_s.begin(), w.late_s.end());
  const double interval_s =
      std::chrono::duration<double>(kAppendInterval).count();
  if (late_max > interval_s) {
    result.flags.push_back(
        "appender fell behind its schedule: an append started " +
        std::to_string(late_max * 1e3) + " ms late (interval " +
        std::to_string(interval_s * 1e3) + " ms)");
  }

  if (options.trace) {
    cfest::metrics::HistogramData wait = WaitHistogram();
    wait.count -= wait_before.count;
    for (size_t i = 0; i < wait.buckets.size(); ++i) {
      wait.buckets[i] -= wait_before.buckets[i];
    }
    const uint64_t requests =
        after.coalesce_requests - before.coalesce_requests;
    const uint64_t builds = after.index_builds - before.index_builds;
    const uint64_t hits = after.index_cache_hits - before.index_cache_hits;
    // Only reads enter the engine.
    const double traced_reads = static_cast<double>(w.read_s.size());
    const double per_read =
        1.0 / static_cast<double>(std::max<uint64_t>(1, reads));
    std::map<std::string, double> extra = {
        {"index.builds", static_cast<double>(builds) * per_read},
        {"index.invalidations",
         static_cast<double>(after.invalidations - before.invalidations) *
             per_read},
        {"index.cache_hit_ratio",
         builds + hits > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(builds + hits)
                           : 0.0},
        {"estimator.coalesce_merged_ratio",
         requests > 0 ? static_cast<double>(after.coalesce_merged -
                                            before.coalesce_merged) /
                            static_cast<double>(requests)
                      : 0.0},
        {"estimator.coalesce_wait_p50_ms", wait.Quantile(0.5) * 1e-6},
        {"appender.late_p50_ms", Median(w.late_s) * 1e3},
        {"appender.late_max_ms", late_max * 1e3},
        {"trace.overhead_ratio", Median(w.read_s) / Median(untraced.read_s)},
    };
    FoldProgramSpans(traced_reads, &extra);
    EmitPerLayer(extra, &result);
    return result;
  }

  result.Report("serve_p50_ms", Median(w.read_s) * 1e3, "ms");
  result.Report("serve_p90_ms", Quantile(w.read_s, 0.9) * 1e3, "ms");
  result.Report("serve_qps", static_cast<double>(w.read_s.size()) / w.seconds,
                "1/s");
  result.Report("append_p50_ms", Median(w.append_s) * 1e3, "ms");
  result.Report("append_p90_ms", Quantile(w.append_s, 0.9) * 1e3, "ms");
  result.Report("appender_late_p50_ms", Median(w.late_s) * 1e3, "ms");
  result.Report("appender_late_max_ms", late_max * 1e3, "ms");
  result.Report("reads", static_cast<double>(w.read_s.size()), "count");
  result.Report("appends", static_cast<double>(w.append_s.size()), "count");
  result.Report("refreshes",
                static_cast<double>(after.refreshes - before.refreshes),
                "count");
  result.Add("setup_s", Median(setups), "s");
  result.Add("peak_rss_mb", peak_mb, "MB");
  result.Add("primary_ms", Median(w.read_s) * 1e3, "ms");
  result.Add("secondary_ms", Quantile(w.read_s, 0.9) * 1e3, "ms");
  result.Add("primary_per_s", static_cast<double>(w.read_s.size()) / w.seconds,
             "1/s");
  return result;
}

}  // namespace perfbench
