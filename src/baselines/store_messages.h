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
#include "sim/network.h"

namespace geotp {
namespace baselines {

/// Versioned read of a batch of records.
struct StoreReadRequest : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kStoreReadRequest;
  }
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  std::vector<RecordKey> keys;
  GEOTP_WIRE_FIELDS(txn, req_id, keys)
  size_t WireSize() const override { return 48 + keys.size() * 16; }
};

struct ReadResult {
  int64_t value = 0;
  uint64_t version = 0;
  GEOTP_WIRE_FIELDS(value, version)
};

struct StoreReadResponse : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kStoreReadResponse;
  }
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  Status status;
  std::vector<ReadResult> results;
  GEOTP_WIRE_FIELDS(txn, req_id, status, results)
  size_t WireSize() const override { return 48 + results.size() * 16; }
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
struct StorePrepareRequest : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kStorePrepareRequest;
  }
  TxnId txn = kInvalidTxn;
  std::vector<StagedOp> ops;
  GEOTP_WIRE_FIELDS(txn, ops)
  size_t WireSize() const override { return 48 + ops.size() * 32; }
};

struct StorePrepareResponse : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kStorePrepareResponse;
  }
  TxnId txn = kInvalidTxn;
  Status status;
  GEOTP_WIRE_FIELDS(txn, status)
};

/// Promote (commit=true) or discard (commit=false) the txn's intents.
struct StoreDecisionRequest : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kStoreDecisionRequest;
  }
  TxnId txn = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(txn, commit)
};

struct StoreDecisionAck : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kStoreDecisionAck;
  }
  TxnId txn = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(txn, commit)
};

// ---------------------------------------------------------------------------
// Yugabyte-style tablet messages
// ---------------------------------------------------------------------------

/// Execute a batch at an owner tablet: reads return committed values;
/// writes install provisional intents immediately (fail-fast on conflict).
struct YbBatchRequest : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kYbBatchRequest;
  }
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  std::vector<StagedOp> ops;  ///< expected_version unused (pessimistic write)
  GEOTP_WIRE_FIELDS(txn, req_id, ops)
  size_t WireSize() const override { return 48 + ops.size() * 32; }
};

struct YbBatchResponse : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kYbBatchResponse;
  }
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  Status status;
  std::vector<ReadResult> results;  ///< read ops only, in order
  GEOTP_WIRE_FIELDS(txn, req_id, status, results)
};

/// Asynchronous intent resolution after the status record committed.
struct YbResolveRequest : sim::MessageBase {
  sim::MessageType type() const override {
    return sim::MessageType::kYbResolveRequest;
  }
  TxnId txn = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(txn, commit)
};

}  // namespace baselines
}  // namespace geotp

#endif  // GEOTP_BASELINES_STORE_MESSAGES_H_
