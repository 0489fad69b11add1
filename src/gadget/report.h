// Machine-readable run reports (DESIGN.md §5d). A report is a versioned JSON
// document capturing everything one evaluator run measured: run metadata,
// the final ReplayResult (with full histograms as sparse bucket arrays, so a
// parsed report merges bit-identically), the timeline samples, and the
// store's StoreStats. tools/gadget --report=FILE writes one; CI consumes it
// through tools/report_check, which validates the schema and gates on the
// recovery and server sections. Reports are not diffed against each other:
// a performance claim rests on alternating pairs of runs, not on one run
// against one run.
#ifndef GADGET_GADGET_REPORT_H_
#define GADGET_GADGET_REPORT_H_

#include <map>
#include <string>

#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/status.h"
#include "src/gadget/evaluator.h"
#include "src/stores/kvstore.h"

namespace gadget {

inline constexpr char kReportSchema[] = "gadget.report/1";

struct ReportMeta {
  std::string engine;
  std::string git;        // best-effort `git describe --always --dirty`
  std::string timestamp;  // ISO-8601 UTC
  uint64_t batch_size = 1;
  std::map<std::string, std::string> config;  // resolved run configuration
};

// Best-effort `git describe --always --dirty`. The GADGET_GIT_DESCRIBE
// environment variable overrides (CI sets it so containers without a .git
// checkout still stamp reports); "" when neither source is available.
std::string GitDescribe();

// "YYYY-MM-DDTHH:MM:SSZ", UTC wall clock.
std::string CurrentTimestamp();

// Full histogram state: {"count","sum","min","max","buckets":[[index,count]...]}.
JsonValue HistogramToJson(const LatencyHistogram& h);
// Inverse of HistogramToJson. Returns false (leaving *out reset) on missing
// fields, malformed bucket pairs, or out-of-range bucket indexes.
bool HistogramFromJson(const JsonValue& v, LatencyHistogram* out);

// Every StoreStats counter by field name, plus "level_files" as an array.
JsonValue StoreStatsToJson(const StoreStats& s);

// Assembles the gadget.report/1 document: "meta", "result" (scalars, full
// histograms, the timeline and, when checkpointing ran, the checkpoints),
// "stats", and the optional "recovery" object (nullptr = no crash/restore
// scenario ran).
JsonValue BuildReportJson(const ReportMeta& meta, const ReplayResult& result,
                          const StoreStats& stats, const RecoveryResult* recovery = nullptr);

// BuildReportJson + pretty-printed write to `path`.
Status WriteReportJson(const std::string& path, const ReportMeta& meta,
                       const ReplayResult& result, const StoreStats& stats,
                       const RecoveryResult* recovery = nullptr);

// Structural validation: Ok iff `doc` is a well-formed gadget.report/1
// document (schema tag, required sections and field types, histograms that
// restore cleanly). Any other schema is an "unknown schema" error.
// InvalidArgument names the first problem.
Status ValidateReportJson(const JsonValue& doc);

}  // namespace gadget

#endif  // GADGET_GADGET_REPORT_H_
