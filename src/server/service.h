// CLI entry points for the store service: `gadget serve` and
// `gadget loadgen` (DESIGN.md §6). Both take the same flat key=value Config
// the harness uses, so a loadgen run is described exactly like an in-process
// replay — same trace-generation keys, same store keys on the serve side —
// plus the service-specific keys below.
//
// serve:
//   port              listen port, 0 = kernel-assigned            (0)
//   shards            engine shards behind the router             (4)
//   io_threads        reactor threads, 0 = min(4, hw threads)     (0)
//   conn_outq_limit   queued response bytes per connection before
//                     its reads pause                             (4194304)
//   port_file         write the bound port here once listening
//                     (how CI finds a kernel-assigned port)
//   store / store_dir / buffer_pool_* / sync_writes ...           (harness keys)
//
// loadgen:
//   port              server port (or read from port_file)        (0)
//   port_file         read the port from this file when port=0
//   clients           replay threads, one connection each         (4)
//   shards            must match the server's shard count         (4)
//   batch_size        max ops per frame (OpCoalescer side cap)    (32)
//   pipeline_depth    frames in flight per connection             (4)
//   max_ops           replay budget, 0 = whole trace              (0)
//   report            write a gadget.report/1 JSON here; carries a
//                     "server" object (wire accounting + shard skew)
//                     and the server's merged StoreStats
//   mode/operator/source/events/... (harness trace-generation keys)
#ifndef GADGET_SERVER_SERVICE_H_
#define GADGET_SERVER_SERVICE_H_

#include <ostream>

#include "src/common/config.h"
#include "src/common/status.h"

namespace gadget {
namespace wire {

// Runs a server until SIGINT/SIGTERM. Blocks.
Status ServeMain(const Config& config, std::ostream& out);

// Builds the configured trace, replays it over the wire, prints a summary,
// and optionally writes the report.
Status LoadgenMain(const Config& config, std::ostream& out);

}  // namespace wire
}  // namespace gadget

#endif  // GADGET_SERVER_SERVICE_H_
