#include "src/server/service.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/gadget/harness.h"
#include "src/gadget/report.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"

namespace gadget {
namespace wire {
namespace {

std::atomic<bool> g_stop{false};

void StopSignalHandler(int /*signo*/) { g_stop.store(true, std::memory_order_relaxed); }

// The loadgen run's gadget.report/1 document: the standard report built from
// the merged wire-level ReplayResult, with "stats" replaced by the SERVER's
// merged StoreStats (the engines live on the other side of the wire) and a
// "server" object carrying the wire accounting the server-smoke gate checks.
Status WriteLoadgenReport(const std::string& path, const Config& config,
                          const LoadgenOptions& opts, const LoadgenResult& result,
                          std::ostream& out) {
  ReportMeta meta;
  meta.engine = config.GetString("store", "lsm");
  meta.git = GitDescribe();
  meta.timestamp = CurrentTimestamp();
  meta.batch_size = opts.batch_size;
  meta.config = config.values();
  JsonValue doc = BuildReportJson(meta, result.replay, StoreStats());

  auto server_stats = ParseJson(result.server_stats_json);
  if (!server_stats.ok()) {
    return server_stats.status();
  }
  if (const JsonValue* merged = server_stats->Get("merged")) {
    doc.Set("stats", *merged);
  }
  JsonValue server = JsonValue::MakeObject();
  server.Set("shards", static_cast<uint64_t>(opts.shards));
  server.Set("clients", static_cast<uint64_t>(opts.clients));
  server.Set("pipeline_depth", opts.pipeline_depth);
  server.Set("ops_sent", result.ops_sent);
  server.Set("ops_acked", result.ops_acked);
  server.Set("errors", result.errors);
  JsonValue shard_ops = JsonValue::MakeArray();
  for (uint64_t n : result.shard_ops) {
    shard_ops.Append(n);
  }
  server.Set("shard_ops", std::move(shard_ops));
  server.Set("shard_skew", result.shard_skew);
  if (const JsonValue* per_shard = server_stats->Get("per_shard")) {
    server.Set("per_shard", *per_shard);
  }
  // The server's network-layer counters (io thread count, writev coalescing,
  // output-queue stalls) ride along inside its STATS document;
  // report_check --require_server validates their presence and shape.
  if (const JsonValue* net = server_stats->Get("net")) {
    server.Set("net", *net);
  }
  doc.Set("server", std::move(server));

  GADGET_RETURN_IF_ERROR(ValidateReportJson(doc));
  GADGET_RETURN_IF_ERROR(WriteStringToFile(path, doc.Write(2)));
  out << "report written to " << path << "\n";
  return Status::Ok();
}

}  // namespace

Status ServeMain(const Config& config, std::ostream& out) {
  ServerOptions opts;
  opts.port = static_cast<uint16_t>(config.GetUint("port", 0));
  opts.shards = static_cast<int>(config.GetUint("shards", 4));
  opts.io_threads = static_cast<int>(config.GetUint("io_threads", 0));
  opts.conn_outq_limit = config.GetUint("conn_outq_limit", opts.conn_outq_limit);

  std::string dir = config.GetString("store_dir");
  std::unique_ptr<ScopedTempDir> tmp;
  if (dir.empty()) {
    tmp = std::make_unique<ScopedTempDir>("gadget-serve");
    dir = tmp->path() + "/db";
  }
  opts.store = StoreOptionsFromConfig(config, dir);

  auto server = Server::Start(opts);
  if (!server.ok()) {
    return server.status();
  }
  out << "serving " << opts.store.engine << " on 127.0.0.1:" << (*server)->port() << " with "
      << opts.shards << " shards, " << (*server)->io_threads() << " IO threads (dir " << dir
      << ")\n";
  out.flush();
  const std::string port_file = config.GetString("port_file");
  if (!port_file.empty()) {
    // Written only once the socket is live: a reader that sees the file can
    // connect immediately (the CI smoke job polls for exactly this).
    GADGET_RETURN_IF_ERROR(
        WriteStringToFile(port_file, std::to_string((*server)->port()) + "\n"));
  }

  g_stop.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, StopSignalHandler);
  std::signal(SIGTERM, StopSignalHandler);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  out << "shutting down\n";
  (*server)->Stop();
  return Status::Ok();
}

Status LoadgenMain(const Config& config, std::ostream& out) {
  LoadgenOptions opts;
  opts.port = static_cast<uint16_t>(config.GetUint("port", 0));
  if (opts.port == 0) {
    const std::string port_file = config.GetString("port_file");
    if (port_file.empty()) {
      return Status::InvalidArgument("loadgen requires port=N or port_file=PATH");
    }
    std::string text;
    GADGET_RETURN_IF_ERROR(ReadFileToString(port_file, &text));
    opts.port = static_cast<uint16_t>(std::stoul(text));
  }
  opts.clients = static_cast<int>(config.GetUint("clients", 4));
  opts.shards = static_cast<int>(config.GetUint("shards", 4));
  opts.batch_size = std::max<uint64_t>(config.GetUint("batch_size", 32), 1);
  opts.pipeline_depth = std::max<uint64_t>(config.GetUint("pipeline_depth", 4), 1);
  opts.max_ops = config.GetUint("max_ops", 0);
  opts.connect_budget_ms = static_cast<int>(config.GetUint("connect_budget_ms", 2000));

  auto trace = BuildAccessTrace(config);
  if (!trace.ok()) {
    return trace.status();
  }
  out << "loadgen: " << trace->size() << " accesses, " << opts.clients << " clients -> "
      << opts.shards << " shards on 127.0.0.1:" << opts.port << "\n";

  auto result = RunLoadgen(*trace, opts);
  if (!result.ok()) {
    return result.status();
  }
  out << "wire: " << result->replay.Summary() << "\n";
  out << "  reads:  " << result->replay.read_latency_ns.Summary() << "\n";
  out << "  writes: " << result->replay.write_latency_ns.Summary() << "\n";
  out << "  acked " << result->ops_acked << "/" << result->ops_sent << " ops, "
      << result->errors << " errors\n";
  out << "  shard ops:";
  for (uint64_t n : result->shard_ops) {
    out << " " << n;
  }
  out << " (skew " << result->shard_skew << ")\n";

  const std::string report = config.GetString("report");
  if (!report.empty()) {
    GADGET_RETURN_IF_ERROR(WriteLoadgenReport(report, config, opts, *result, out));
  }
  if (result->ops_acked != result->ops_sent || result->errors != 0) {
    return Status::IoError("loadgen lost operations: sent " + std::to_string(result->ops_sent) +
                           ", acked " + std::to_string(result->ops_acked) + ", " +
                           std::to_string(result->errors) + " errors");
  }
  return Status::Ok();
}

}  // namespace wire
}  // namespace gadget
