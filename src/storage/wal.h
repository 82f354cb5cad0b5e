// Write-ahead-log cost model and record counters.
//
// Real data sources pay an fsync on XA PREPARE and on COMMIT. In the
// simulation the *time* cost is charged by the data-source node (it
// schedules the fsync duration on the event loop); this class counts the
// records appended per type and the physical flushes. It keeps no
// per-record state, so its memory is constant however long a node runs.
#ifndef GEOTP_STORAGE_WAL_H_
#define GEOTP_STORAGE_WAL_H_

#include <cstdint>

#include "common/types.h"

namespace geotp {
namespace storage {

struct WalStats {
  uint64_t prepares = 0;  ///< prepare records appended
  uint64_t commits = 0;   ///< commit records appended
  uint64_t aborts = 0;    ///< abort records appended
  uint64_t fsyncs = 0;    ///< physical log-device flushes
  GEOTP_STAT_FIELDS(prepares, commits, aborts, fsyncs)

  /// Records appended, of every type.
  uint64_t Entries() const { return prepares + commits + aborts; }
};

class Wal {
 public:
  /// Appends (buffers) a record. Appending alone is NOT durability: the
  /// record reaches the disk at the next fsync, which the owner reports
  /// via NoteFsync(). Under group commit many records share one fsync, so
  /// the two counts diverge — Fig. 6 resource accounting needs both.
  void AppendPrepare() { ++stats_.prepares; }
  void AppendCommit() { ++stats_.commits; }
  void AppendAbort() { ++stats_.aborts; }

  /// Records one physical log-device flush (possibly covering many
  /// appended records).
  void NoteFsync() { ++stats_.fsyncs; }

  const WalStats& stats() const { return stats_; }
  uint64_t fsyncs() const { return stats_.fsyncs; }

 private:
  WalStats stats_;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_WAL_H_
