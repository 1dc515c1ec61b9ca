// FIG 15 (extension): the 1999 interfaces and their successors, head to
// head. Every event core the simulator models — stock poll(), /dev/poll
// (hinted), RT signals, epoll level- and edge-triggered, and kqueue — serves
// the same seeded workload at the paper's three inactive-connection loads
// (1 / 251 / 501). The CSV carries the reply-rate series plus the full
// per-category virtual-CPU breakdown, so the table answers *where* each
// interface spends its cycles, not just how fast it goes.
//
// Gates (exit status 0 only when all pass):
//   - attribution.Sum() == busy_time for every run;
//   - double-run determinism: one config per (server, load) runs twice and
//     the run Signature() must match byte for byte.
//
// Usage: bench_fig15_successors [--quick] [--rates=...] [--duration=S]
//                               [--inactive=N] [--seed=N]
//   --quick   single mid rate, short duration (CI smoke).
//   The sweep flags are figure_harness's; --inactive=N runs that one load
//   instead of the paper's three.

#include <iostream>
#include <string>
#include <vector>

#include "bench/figure_harness.h"
#include "src/metrics/table.h"

int main(int argc, char** argv) {
  using namespace scio;

  FigureSweepConfig sweep;
  sweep.rates = {500, 700, 900, 1100};
  sweep.inactive = -1;  // unset: all three paper loads
  if (ApplyCommandLine(argc, argv, &sweep).quick) {
    sweep.rates = {700};  // single mid rate: the CI smoke
  }

  const std::vector<ServerKind> servers = {
      ServerKind::kThttpdPoll,    ServerKind::kThttpdDevPoll,
      ServerKind::kPhhttpd,       ServerKind::kThttpdEpoll,
      ServerKind::kThttpdEpollEt, ServerKind::kPhhttpdKqueue};
  const std::vector<int> loads =
      sweep.inactive < 0 ? std::vector<int>{1, 251, 501} : std::vector<int>{sweep.inactive};
  gate::Tally tally;

  std::cout << "=== fig15: successor event cores vs the 1999 interfaces ===\n\n";
  Table table({"server", "load", "rate", "reply_avg", "err_pct", "median_ms",
               "event_cpu_ms"});
  std::vector<std::string> csv_headers = {"server", "load"};
  for (std::string& header : SweepCsvHeaders()) {
    csv_headers.push_back(std::move(header));
  }
  Table csv_table(std::move(csv_headers));

  for (ServerKind server : servers) {
    sweep.server = server;
    for (int load : loads) {
      sweep.inactive = load;
      for (double rate : sweep.rates) {
        const BenchmarkResult result = RunBenchmark(SweepPointConfig(sweep, rate));
        if (!result.setup_ok) {
          std::cout << "SETUP FAILED: " << ServerKindName(server) << " load "
                    << load << "\n";
          tally.Fail();
          continue;
        }
        if (!tally.Check(result.attribution.Sum() == result.busy_time)) {
          std::cout << "ATTRIBUTION GATE FAILED: " << ServerKindName(server)
                    << " load " << load << " rate " << rate << ": sum "
                    << result.attribution.Sum() << " != busy "
                    << result.busy_time << "\n";
        }

        // "Event CPU": what the core's own machinery cost this run — the
        // interface-specific categories, excluding request processing.
        SimDuration event_cpu = 0;
        for (ChargeCat cat :
             {ChargeCat::kPollfdCopyin, ChargeCat::kDriverPoll, ChargeCat::kWaitqueue,
              ChargeCat::kResultCopyout, ChargeCat::kInterestUpdate,
              ChargeCat::kDevpollScan, ChargeCat::kHintMark, ChargeCat::kEpollCtl,
              ChargeCat::kEpollReady, ChargeCat::kEpollWait, ChargeCat::kKqRegister,
              ChargeCat::kKqFilter, ChargeCat::kSignalEnqueue,
              ChargeCat::kSignalDequeue, ChargeCat::kSignalFlush}) {
          event_cpu += result.attribution[cat];
        }
        std::vector<std::string> row = {ServerKindName(server),
                                        std::to_string(load),
                                        std::to_string(static_cast<int>(rate))};
        for (double v : {result.reply_avg, result.error_pct,
                         result.median_conn_ms, ToMillis(event_cpu)}) {
          row.push_back(gate::Fixed(v, 1));
        }
        table.AddRow(std::move(row));

        std::vector<std::string> csv_row = {ServerKindName(server),
                                            std::to_string(load)};
        for (std::string& cell : SweepCsvCells(rate, result)) {
          csv_row.push_back(std::move(cell));
        }
        csv_table.AddRow(std::move(csv_row));
      }

      // Determinism gate: the last rate, rerun, must be bit-identical.
      const BenchmarkRunConfig repro = SweepPointConfig(sweep, sweep.rates.back());
      if (!tally.Check(gate::RunsIdentical([&] { return RunBenchmark(repro); }))) {
        std::cout << "DETERMINISM GATE FAILED: " << ServerKindName(server)
                  << " load " << load << "\n";
      }
    }
  }

  table.Print(std::cout);
  if (csv_table.WriteCsvFile("fig15_successors.csv")) {
    std::cout << "\n(csv written to fig15_successors.csv)\n";
  }
  return tally.Finish();
}
