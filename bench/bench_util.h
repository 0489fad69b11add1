// Shared helpers for the per-table / per-figure benchmark binaries.
//
// Every bench prints the paper's rows/series plus a `paper-shape:` note
// describing the qualitative claim being reproduced. Scale defaults keep the
// full suite laptop-friendly; env vars raise them to paper scale:
//   GADGET_EVENTS  events per generated stream   (default 120000)
//   GADGET_OPS     operations per store replay   (default 200000)
#ifndef GADGET_BENCH_BENCH_UTIL_H_
#define GADGET_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/status.h"
#include "src/flinklet/runtime.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/event_generator.h"
#include "src/gadget/workload.h"
#include "src/stores/kvstore.h"
#include "src/streams/dataset.h"

namespace gadget {
namespace bench {

uint64_t EventsBudget();  // GADGET_EVENTS
uint64_t OpsBudget();     // GADGET_OPS

// "Real" trace: run the flinklet reference pipeline over a dataset.
StatusOr<std::vector<StateAccess>> RealTrace(const std::string& dataset_name,
                                             const std::string& operator_name,
                                             uint64_t max_events, const PipelineOptions& opts);

// Gadget trace: run the driver/state-machine simulation over the same data.
StatusOr<std::vector<StateAccess>> GadgetTrace(const std::string& dataset_name,
                                               const std::string& operator_name,
                                               uint64_t max_events, const PipelineOptions& opts);

// Collects the dataset's raw events (for amplification metrics).
StatusOr<std::vector<Event>> DatasetEvents(const std::string& dataset_name, uint64_t max_events);

// Opens a store in a fresh subdirectory of `dir`.
StatusOr<std::unique_ptr<KVStore>> OpenBenchStore(const std::string& engine,
                                                  const ScopedTempDir& dir,
                                                  const std::string& tag);

// Replays up to OpsBudget() operations and returns the result.
StatusOr<ReplayResult> ReplayOnStore(const std::vector<StateAccess>& trace,
                                     const std::string& engine, const ScopedTempDir& dir,
                                     const std::string& tag);

// Table formatting.
void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths);
void PrintShapeNote(const std::string& note);

std::string Fmt(double v, int precision = 3);

// The nine Table-1 operators (the eleven minus the two window joins the
// table does not list).
const std::vector<std::string>& Table1Operators();

}  // namespace bench
}  // namespace gadget

#endif  // GADGET_BENCH_BENCH_UTIL_H_
