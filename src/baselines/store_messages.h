// Messages for the non-XA baselines.
//
// ScalarDB treats data sources as plain (non-transactional) stores and
// runs its own concurrency control at the middleware ("consensus commit"):
// read records with versions, validate + install intents at prepare,
// promote at commit. YugabyteDB writes provisional records (intents)
// during execution and resolves them asynchronously after commit.
#ifndef GEOTP_BASELINES_STORE_MESSAGES_H_
#define GEOTP_BASELINES_STORE_MESSAGES_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "runtime/message.h"

namespace geotp {
namespace baselines {

/// Versioned read of a batch of records.
struct StoreReadRequest : runtime::Message<StoreReadRequest> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  std::vector<RecordKey> keys;
  GEOTP_WIRE_FIELDS(txn, req_id, keys)
};

struct ReadResult {
  int64_t value = 0;
  uint64_t version = 0;
  GEOTP_WIRE_FIELDS(value, version)
};

struct StoreReadResponse : runtime::Message<StoreReadResponse> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  Status status;
  std::vector<ReadResult> results;
  GEOTP_WIRE_FIELDS(txn, req_id, status, results)
};

/// One staged operation for prepare-time validation.
struct StagedOp {
  RecordKey key;
  uint64_t expected_version = 0;
  bool is_write = false;
  int64_t write_value = 0;
  GEOTP_WIRE_FIELDS(key, expected_version, is_write, write_value)
};

/// Consensus-commit prepare: validate read versions, install intents.
struct StorePrepareRequest : runtime::Message<StorePrepareRequest> {
  TxnId txn = kInvalidTxn;
  std::vector<StagedOp> ops;
  GEOTP_WIRE_FIELDS(txn, ops)
};

struct StorePrepareResponse : runtime::Message<StorePrepareResponse> {
  TxnId txn = kInvalidTxn;
  Status status;
  GEOTP_WIRE_FIELDS(txn, status)
};

/// Promote (commit=true) or discard (commit=false) the txn's intents.
struct StoreDecisionRequest : runtime::Message<StoreDecisionRequest> {
  TxnId txn = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(txn, commit)
};

struct StoreDecisionAck : runtime::Message<StoreDecisionAck> {
  TxnId txn = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(txn, commit)
};

// ---------------------------------------------------------------------------
// Yugabyte-style tablet messages
// ---------------------------------------------------------------------------

/// Execute a batch at an owner tablet: reads return committed values;
/// writes install provisional intents immediately (fail-fast on conflict).
struct YbBatchRequest : runtime::Message<YbBatchRequest> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  std::vector<StagedOp> ops;  ///< expected_version unused (pessimistic write)
  GEOTP_WIRE_FIELDS(txn, req_id, ops)
};

struct YbBatchResponse : runtime::Message<YbBatchResponse> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  Status status;
  std::vector<ReadResult> results;  ///< read ops only, in order
  GEOTP_WIRE_FIELDS(txn, req_id, status, results)
};

/// Asynchronous intent resolution after the status record committed.
struct YbResolveRequest : runtime::Message<YbResolveRequest> {
  TxnId txn = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(txn, commit)
};

}  // namespace baselines
}  // namespace geotp

#endif  // GEOTP_BASELINES_STORE_MESSAGES_H_
