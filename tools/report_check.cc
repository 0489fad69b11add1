// CI gate for gadget run reports (src/gadget/report.h).
//
//   report_check <report.json>                         # validate only
//   report_check <report.json> --require_recovery      # + recovery gate
//   report_check <report.json> --require_server        # + wire-replay gate
//
// Exits 0 iff the document is a schema-valid gadget.report/1;
// --require_recovery additionally demands the "recovery" object of a
// checkpointed run (see src/gadget/evaluator.h) with
// mismatched_keys == 0, so CI fails if the crash/restore scenario was
// skipped or the restored store diverged from the oracle. --require_server
// demands the "server" object a `gadget loadgen` run emits (see
// src/server/service.h) with zero lost operations (ops_acked == ops_sent),
// zero server errors, a non-empty per-shard breakdown, and a "net" object
// whose counters moved (bytes in/out, writev calls, per-IO-thread op gauges)
// — the server-smoke CI gate. It takes exactly one report and compares
// nothing. Exit codes: 0 pass, 1 validation or gate failure, 2 usage /
// unreadable / unparsable input.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/gadget/report.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <report.json> [--require_recovery] [--require_server]\n",
               argv0);
  return 2;
}

// Loads and parses one report file; exits through *error on failure.
bool Load(const std::string& path, gadget::JsonValue* out, std::string* error) {
  std::string text;
  gadget::Status s = gadget::ReadFileToString(path, &text);
  if (!s.ok()) {
    *error = path + ": " + s.ToString();
    return false;
  }
  auto parsed = gadget::ParseJson(text);
  if (!parsed.ok()) {
    *error = path + ": " + parsed.status().ToString();
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool require_recovery = false;
  bool require_server = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--require_recovery") {
      require_recovery = true;
    } else if (arg == "--require_server") {
      require_server = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.size() != 1) {
    return Usage(argv[0]);
  }

  const std::string& file = files[0];
  gadget::JsonValue doc;
  std::string error;
  if (!Load(file, &doc, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  gadget::Status s = gadget::ValidateReportJson(doc);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: invalid report: %s\n", file.c_str(), s.ToString().c_str());
    return 1;
  }
  std::printf("%s: valid %s\n", file.c_str(), doc.GetString("schema").c_str());
  if (require_recovery) {
    const gadget::JsonValue* recovery = doc.Get("recovery");
    if (recovery == nullptr) {
      std::fprintf(stderr, "%s: missing \"recovery\" (run with --checkpoint_every=N)\n",
                   file.c_str());
      return 1;
    }
    uint64_t mismatched = recovery->GetUint("mismatched_keys");
    uint64_t verified = recovery->GetUint("verified_keys");
    if (mismatched != 0 || verified == 0) {
      std::fprintf(stderr, "%s: recovery verification failed (%llu of %llu keys mismatched)\n",
                   file.c_str(), static_cast<unsigned long long>(mismatched),
                   static_cast<unsigned long long>(verified));
      return 1;
    }
    std::printf("%s: recovery verified (%llu keys, restore %.3f ms)\n", file.c_str(),
                static_cast<unsigned long long>(verified),
                recovery->GetDouble("restore_micros") / 1000.0);
  }
  if (require_server) {
    const gadget::JsonValue* server = doc.Get("server");
    if (server == nullptr) {
      std::fprintf(stderr, "%s: missing \"server\" (run via `gadget loadgen --report=...`)\n",
                   file.c_str());
      return 1;
    }
    const uint64_t shards = server->GetUint("shards");
    const uint64_t clients = server->GetUint("clients");
    const uint64_t sent = server->GetUint("ops_sent");
    const uint64_t acked = server->GetUint("ops_acked");
    const uint64_t errors = server->GetUint("errors");
    const gadget::JsonValue* shard_ops = server->Get("shard_ops");
    if (shards < 1 || clients < 1 || shard_ops == nullptr || !shard_ops->is_array() ||
        shard_ops->size() != shards) {
      std::fprintf(stderr, "%s: malformed \"server\" object (shards/clients/shard_ops)\n",
                   file.c_str());
      return 1;
    }
    if (sent == 0 || acked != sent || errors != 0) {
      std::fprintf(stderr, "%s: wire replay lost operations (%llu sent, %llu acked, %llu errors)\n",
                   file.c_str(), static_cast<unsigned long long>(sent),
                   static_cast<unsigned long long>(acked), static_cast<unsigned long long>(errors));
      return 1;
    }
    // The multi-reactor net layer must report its counters: io thread
    // count with one thread_ops gauge per reactor, traffic that actually
    // flowed, and writev accounting consistent with it.
    const gadget::JsonValue* net = server->Get("net");
    if (net == nullptr) {
      std::fprintf(stderr, "%s: missing \"server.net\" (net-layer counters)\n", file.c_str());
      return 1;
    }
    const uint64_t io_threads = net->GetUint("io_threads");
    const gadget::JsonValue* thread_ops = net->Get("thread_ops");
    if (io_threads < 1 || thread_ops == nullptr || !thread_ops->is_array() ||
        thread_ops->size() != io_threads) {
      std::fprintf(stderr, "%s: malformed \"server.net\" (io_threads/thread_ops)\n",
                   file.c_str());
      return 1;
    }
    const uint64_t bytes_in = net->GetUint("bytes_in");
    const uint64_t bytes_out = net->GetUint("bytes_out");
    const uint64_t writev_calls = net->GetUint("writev_calls");
    const uint64_t frames_max = net->GetUint("frames_per_writev_max");
    if (bytes_in == 0 || bytes_out == 0 || writev_calls == 0 || frames_max == 0) {
      std::fprintf(stderr,
                   "%s: \"server.net\" counters did not move (bytes_in=%llu bytes_out=%llu "
                   "writev_calls=%llu frames_per_writev_max=%llu)\n",
                   file.c_str(), static_cast<unsigned long long>(bytes_in),
                   static_cast<unsigned long long>(bytes_out),
                   static_cast<unsigned long long>(writev_calls),
                   static_cast<unsigned long long>(frames_max));
      return 1;
    }
    std::printf("%s: server replay clean (%llu ops over %llu shards, skew %.3f; "
                "%llu IO thread(s))\n",
                file.c_str(), static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(shards), server->GetDouble("shard_skew"),
                static_cast<unsigned long long>(io_threads));
  }
  return 0;
}
