#include "workload/tpcc.h"

#include "common/logging.h"

namespace geotp {
namespace workload {

namespace {

protocol::ClientOp Read(uint32_t table, uint64_t key) {
  protocol::ClientOp op;
  op.key = RecordKey{table, key};
  op.is_write = false;
  return op;
}

protocol::ClientOp Write(uint32_t table, uint64_t key, int64_t delta = 1) {
  protocol::ClientOp op;
  op.key = RecordKey{table, key};
  op.is_write = true;
  op.is_delta = true;
  op.value = delta;
  return op;
}

}  // namespace

TpccGenerator::TpccGenerator(TpccConfig config) : config_(std::move(config)) {
  GEOTP_CHECK(!config_.data_sources.empty(), "need data sources");
  GEOTP_CHECK(config_.warehouses_per_node > 0, "need warehouses");
}

void TpccGenerator::RegisterTables(middleware::Catalog* catalog) const {
  for (uint32_t table : {kWarehouse, kDistrict, kCustomer, kHistory,
                         kNewOrderTab, kOrders, kOrderLine, kItem, kStock}) {
    catalog->AddHighBitsPartitionedTable(table, 48,
                                         config_.warehouses_per_node,
                                         config_.data_sources);
  }
}

uint64_t TpccGenerator::RemoteWarehouse(uint64_t home, Rng& rng) {
  if (config_.data_sources.size() <= 1) return home;
  const size_t home_node = NodeOfWarehouse(home);
  for (;;) {
    const uint64_t w = rng.NextU64(TotalWarehouses());
    if (NodeOfWarehouse(w) != home_node) return w;
  }
}

uint64_t TpccGenerator::PickCustomer(Rng& rng) const {
  // TPC-C NURand(1023, 1, 3000); the non-uniformity matters little for
  // locking (customers are per-district); uniform keeps this readable.
  return rng.NextU64(config_.customers_per_district);
}

TxnSpec TpccGenerator::Next(Rng& rng) {
  double total = 0.0;
  for (double w : config_.mix) total += w;
  double pick = rng.NextDouble() * total;
  int type = 0;
  for (; type < 4; ++type) {
    pick -= config_.mix[static_cast<size_t>(type)];
    if (pick < 0.0) break;
  }
  switch (static_cast<TpccTxnType>(type)) {
    case TpccTxnType::kNewOrder:
      return NewOrder(rng);
    case TpccTxnType::kPayment:
      return Payment(rng);
    case TpccTxnType::kOrderStatus:
      return OrderStatus(rng);
    case TpccTxnType::kDelivery:
      return Delivery(rng);
    case TpccTxnType::kStockLevel:
      return StockLevel(rng);
  }
  return NewOrder(rng);
}

TxnSpec TpccGenerator::NewOrder(Rng& rng) {
  TxnSpec spec;
  spec.type_tag = static_cast<int>(TpccTxnType::kNewOrder);
  const uint64_t w = rng.NextU64(TotalWarehouses());
  const auto d = static_cast<uint64_t>(
      rng.NextU64(static_cast<uint64_t>(config_.districts_per_warehouse)));
  const uint64_t c = PickCustomer(rng);
  const bool remote = config_.data_sources.size() > 1 &&
                      rng.NextBool(config_.distributed_ratio);

  const int ol_cnt = static_cast<int>(rng.NextInt(5, 15));
  std::vector<protocol::ClientOp> ops;
  ops.reserve(5 + 3 * static_cast<size_t>(ol_cnt));
  ops.push_back(Read(kWarehouse, WarehouseKey(w)));           // W_TAX
  ops.push_back(Write(kDistrict, DistrictKey(w, d)));         // D_NEXT_O_ID++
  ops.push_back(Read(kCustomer, CustomerKey(w, d, c)));       // discount

  uint64_t remote_w = remote ? RemoteWarehouse(w, rng) : w;
  for (int i = 0; i < ol_cnt; ++i) {
    const uint64_t item = rng.NextU64(config_.items);
    ops.push_back(Read(kItem, ItemKey(w, item)));             // I_PRICE
    // ~1 in ol_cnt order lines is supplied remotely when distributed
    // (TPC-C spec: 1% per line; here concentrated to make dr precise).
    const bool line_remote = remote && i < 2;
    ops.push_back(Write(kStock, StockKey(line_remote ? remote_w : w, item),
                        -10));                                 // S_QUANTITY
  }
  // Inserts: ORDERS, NEW-ORDER and one ORDER-LINE row per item (fresh keys
  // never contend but do cost engine work and locks).
  const uint64_t fresh = fresh_counter_++;
  ops.push_back(Write(kOrders, (w << 48) | (d << 32) | fresh));
  ops.push_back(Write(kNewOrderTab, (w << 48) | (d << 32) | fresh));
  for (int i = 0; i < ol_cnt; ++i) {
    ops.push_back(Write(
        kOrderLine,
        (w << 48) | (d << 32) | (fresh << 4) | static_cast<uint64_t>(i)));
  }

  spec.distributed = remote;
  spec.rounds.push_back(std::move(ops));
  return spec;
}

TxnSpec TpccGenerator::Payment(Rng& rng) {
  TxnSpec spec;
  spec.type_tag = static_cast<int>(TpccTxnType::kPayment);
  const uint64_t w = rng.NextU64(TotalWarehouses());
  const auto d = static_cast<uint64_t>(
      rng.NextU64(static_cast<uint64_t>(config_.districts_per_warehouse)));
  const bool remote = config_.data_sources.size() > 1 &&
                      rng.NextBool(config_.distributed_ratio);
  const uint64_t c_w = remote ? RemoteWarehouse(w, rng) : w;
  const auto c_d = static_cast<uint64_t>(
      rng.NextU64(static_cast<uint64_t>(config_.districts_per_warehouse)));
  const uint64_t c = PickCustomer(rng);

  std::vector<protocol::ClientOp> ops;
  ops.reserve(4);
  ops.push_back(Write(kWarehouse, WarehouseKey(w), 100));  // W_YTD (hotspot)
  ops.push_back(Write(kDistrict, DistrictKey(w, d), 100)); // D_YTD
  ops.push_back(Write(kCustomer, CustomerKey(c_w, c_d, c), -100));
  ops.push_back(Write(kHistory, (w << 48) | (d << 32) | fresh_counter_++));

  spec.distributed = remote;
  spec.rounds.push_back(std::move(ops));
  return spec;
}

TxnSpec TpccGenerator::OrderStatus(Rng& rng) {
  TxnSpec spec;
  spec.type_tag = static_cast<int>(TpccTxnType::kOrderStatus);
  const uint64_t w = rng.NextU64(TotalWarehouses());
  const auto d = static_cast<uint64_t>(
      rng.NextU64(static_cast<uint64_t>(config_.districts_per_warehouse)));
  const uint64_t c = PickCustomer(rng);

  std::vector<protocol::ClientOp> ops;
  ops.push_back(Read(kCustomer, CustomerKey(w, d, c)));
  const uint64_t recent = fresh_counter_ > 1
                              ? rng.NextU64(fresh_counter_)
                              : 0;
  ops.push_back(Read(kOrders, (w << 48) | (d << 32) | recent));
  for (int i = 0; i < 5; ++i) {
    ops.push_back(Read(kOrderLine, (w << 48) | (d << 32) | (recent << 4) |
                                       static_cast<uint64_t>(i)));
  }
  spec.rounds.push_back(std::move(ops));
  return spec;
}

TxnSpec TpccGenerator::Delivery(Rng& rng) {
  TxnSpec spec;
  spec.type_tag = static_cast<int>(TpccTxnType::kDelivery);
  const uint64_t w = rng.NextU64(TotalWarehouses());

  std::vector<protocol::ClientOp> ops;
  for (int d = 0; d < config_.districts_per_warehouse; ++d) {
    const uint64_t oldest = fresh_counter_ > 1
                                ? rng.NextU64(fresh_counter_)
                                : 0;
    ops.push_back(Write(kOrders, (w << 48) |
                                     (static_cast<uint64_t>(d) << 32) |
                                     oldest));  // O_CARRIER_ID
    ops.push_back(Write(kCustomer,
                        CustomerKey(w, static_cast<uint64_t>(d),
                                    PickCustomer(rng)),
                        50));  // C_BALANCE
  }
  spec.rounds.push_back(std::move(ops));
  return spec;
}

TxnSpec TpccGenerator::StockLevel(Rng& rng) {
  TxnSpec spec;
  spec.type_tag = static_cast<int>(TpccTxnType::kStockLevel);
  const uint64_t w = rng.NextU64(TotalWarehouses());
  const auto d = static_cast<uint64_t>(
      rng.NextU64(static_cast<uint64_t>(config_.districts_per_warehouse)));

  std::vector<protocol::ClientOp> ops;
  ops.push_back(Read(kDistrict, DistrictKey(w, d)));
  for (int i = 0; i < 20; ++i) {
    ops.push_back(Read(kStock, StockKey(w, rng.NextU64(config_.items))));
  }
  spec.rounds.push_back(std::move(ops));
  return spec;
}

}  // namespace workload
}  // namespace geotp
