#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>

namespace gadget {
namespace bench {

namespace {
uint64_t EnvOr(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return def;
  }
  return std::strtoull(v, nullptr, 10);
}
}  // namespace

uint64_t EventsBudget() { return EnvOr("GADGET_EVENTS", 120'000); }
uint64_t OpsBudget() { return EnvOr("GADGET_OPS", 200'000); }

StatusOr<std::vector<StateAccess>> RealTrace(const std::string& dataset_name,
                                             const std::string& operator_name,
                                             uint64_t max_events, const PipelineOptions& opts) {
  auto dataset = MakeDataset(dataset_name, max_events, /*seed=*/42);
  if (!dataset.ok()) {
    return dataset.status();
  }
  auto result = RunPipeline(operator_name, **dataset, opts);
  if (!result.ok()) {
    return result.status();
  }
  return std::move(result->trace);
}

StatusOr<std::vector<StateAccess>> GadgetTrace(const std::string& dataset_name,
                                               const std::string& operator_name,
                                               uint64_t max_events, const PipelineOptions& opts) {
  auto dataset = MakeDataset(dataset_name, max_events, /*seed=*/42);
  if (!dataset.ok()) {
    return dataset.status();
  }
  auto source = MakeReplaySource(std::move(*dataset), opts.watermark_every);
  auto result = GenerateWorkload(operator_name, *source, opts.operator_config);
  if (!result.ok()) {
    return result.status();
  }
  return std::move(result->trace);
}

StatusOr<std::vector<Event>> DatasetEvents(const std::string& dataset_name, uint64_t max_events) {
  auto dataset = MakeDataset(dataset_name, max_events, /*seed=*/42);
  if (!dataset.ok()) {
    return dataset.status();
  }
  return CollectEvents(**dataset);
}

StatusOr<std::unique_ptr<KVStore>> OpenBenchStore(const std::string& engine,
                                                  const ScopedTempDir& dir,
                                                  const std::string& tag) {
  StoreOptions opts;
  opts.engine = engine;
  opts.dir = dir.path() + "/" + engine + "-" + tag;
  return OpenStore(opts);
}

StatusOr<ReplayResult> ReplayOnStore(const std::vector<StateAccess>& trace,
                                     const std::string& engine, const ScopedTempDir& dir,
                                     const std::string& tag) {
  auto store = OpenBenchStore(engine, dir, tag);
  if (!store.ok()) {
    return store.status();
  }
  ReplayOptions opts;
  opts.max_ops = OpsBudget();
  auto result = ReplayTrace(trace, store->get(), opts);
  Status close = (*store)->Close();
  if (!result.ok()) {
    return result.status();
  }
  if (!close.ok()) {
    return close;
  }
  return result;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

void PrintShapeNote(const std::string& note) { std::printf("paper-shape: %s\n", note.c_str()); }

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

const std::vector<std::string>& Table1Operators() {
  static const std::vector<std::string> kOps = {
      "tumbling_incr", "sliding_incr", "session_incr", "tumbling_hol", "sliding_hol",
      "session_hol",   "join_cont",    "join_interval", "aggregation",
  };
  return kOps;
}

}  // namespace bench
}  // namespace gadget
