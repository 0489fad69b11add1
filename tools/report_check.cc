// CI gate for gadget run reports (src/gadget/report.h).
//
//   report_check <report.json>                         # validate only
//   report_check <report.json> --require_recovery      # + recovery gate
//   report_check <report.json> --require_server        # + wire-replay gate
//   report_check <baseline.json> <candidate.json> [--max_regression=0.15]
//
// With one file, exits 0 iff the document is a schema-valid gadget.report/1
// or gadget.bench/1; --require_recovery additionally demands the "recovery"
// object of a checkpointed run (see src/gadget/evaluator.h) with
// mismatched_keys == 0, so CI fails if the crash/restore scenario was
// skipped or the restored store diverged from the oracle. --require_server
// demands the "server" object a `gadget loadgen` run emits (see
// src/server/service.h) with zero lost operations (ops_acked == ops_sent),
// zero server errors, a non-empty per-shard breakdown, and a "net" object
// whose counters moved (bytes in/out, writev calls, per-IO-thread op gauges)
// — the server-smoke CI gate. With two files, additionally compares
// candidate against baseline: throughput may drop, and overall-latency
// p50/p99/p999 may rise, by at most --max_regression (default 0.15). Exit codes: 0 pass, 1 regression or validation failure,
// 2 usage / unreadable / unparsable input.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/gadget/report.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <report.json> [--require_recovery] [--require_server]\n"
               "       %s <baseline.json> <candidate.json> [--max_regression=0.15]\n",
               argv0, argv0);
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
  double max_regression = 0.15;
  bool require_recovery = false;
  bool require_server = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--max_regression=", 0) == 0) {
      char* end = nullptr;
      max_regression = std::strtod(arg.c_str() + 17, &end);
      if (end == nullptr || *end != '\0' || max_regression < 0) {
        std::fprintf(stderr, "bad --max_regression value: %s\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--require_recovery") {
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
  if (files.empty() || files.size() > 2) {
    return Usage(argv[0]);
  }

  std::vector<gadget::JsonValue> docs(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    std::string error;
    if (!Load(files[i], &docs[i], &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    gadget::Status s = gadget::ValidateReportJson(docs[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: invalid report: %s\n", files[i].c_str(), s.ToString().c_str());
      return 1;
    }
    std::printf("%s: valid %s\n", files[i].c_str(), docs[i].GetString("schema").c_str());
    if (require_recovery) {
      const gadget::JsonValue* recovery = docs[i].Get("recovery");
      if (recovery == nullptr) {
        std::fprintf(stderr, "%s: missing \"recovery\" (run with --checkpoint_every=N)\n",
                     files[i].c_str());
        return 1;
      }
      uint64_t mismatched = recovery->GetUint("mismatched_keys");
      uint64_t verified = recovery->GetUint("verified_keys");
      if (mismatched != 0 || verified == 0) {
        std::fprintf(stderr, "%s: recovery verification failed (%llu of %llu keys mismatched)\n",
                     files[i].c_str(), static_cast<unsigned long long>(mismatched),
                     static_cast<unsigned long long>(verified));
        return 1;
      }
      std::printf("%s: recovery verified (%llu keys, restore %.3f ms)\n", files[i].c_str(),
                  static_cast<unsigned long long>(verified),
                  recovery->GetDouble("restore_micros") / 1000.0);
    }
    if (require_server) {
      const gadget::JsonValue* server = docs[i].Get("server");
      if (server == nullptr) {
        std::fprintf(stderr, "%s: missing \"server\" (run via `gadget loadgen --report=...`)\n",
                     files[i].c_str());
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
                     files[i].c_str());
        return 1;
      }
      if (sent == 0 || acked != sent || errors != 0) {
        std::fprintf(stderr,
                     "%s: wire replay lost operations (%llu sent, %llu acked, %llu errors)\n",
                     files[i].c_str(), static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(acked),
                     static_cast<unsigned long long>(errors));
        return 1;
      }
      // The multi-reactor net layer must report its counters: io thread
      // count with one thread_ops gauge per reactor, traffic that actually
      // flowed, and writev accounting consistent with it.
      const gadget::JsonValue* net = server->Get("net");
      if (net == nullptr) {
        std::fprintf(stderr, "%s: missing \"server.net\" (net-layer counters)\n",
                     files[i].c_str());
        return 1;
      }
      const uint64_t io_threads = net->GetUint("io_threads");
      const gadget::JsonValue* thread_ops = net->Get("thread_ops");
      if (io_threads < 1 || thread_ops == nullptr || !thread_ops->is_array() ||
          thread_ops->size() != io_threads) {
        std::fprintf(stderr, "%s: malformed \"server.net\" (io_threads/thread_ops)\n",
                     files[i].c_str());
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
                     files[i].c_str(), static_cast<unsigned long long>(bytes_in),
                     static_cast<unsigned long long>(bytes_out),
                     static_cast<unsigned long long>(writev_calls),
                     static_cast<unsigned long long>(frames_max));
        return 1;
      }
      std::printf("%s: server replay clean (%llu ops over %llu shards, skew %.3f; "
                  "%llu IO thread(s))\n",
                  files[i].c_str(), static_cast<unsigned long long>(acked),
                  static_cast<unsigned long long>(shards), server->GetDouble("shard_skew"),
                  static_cast<unsigned long long>(io_threads));
    }
  }
  if (files.size() == 1) {
    return 0;
  }

  auto check = gadget::CompareReportJson(docs[0], docs[1], max_regression);
  if (!check.ok()) {
    std::fprintf(stderr, "compare: %s\n", check.status().ToString().c_str());
    return 2;
  }
  for (const std::string& failure : check->failures) {
    std::fprintf(stderr, "REGRESSION %s\n", failure.c_str());
  }
  std::printf("%zu metric(s) compared within %.0f%% budget: %s\n", check->compared,
              max_regression * 100.0, check->passed ? "PASS" : "FAIL");
  return check->passed ? 0 : 1;
}
