// TPC-C workload (paper §VII-A2): 9 relations, 5 transaction types,
// 16 warehouses per data node, no think time.
//
// Keys are 64-bit composites with the warehouse id in the top 16 bits, so
// the catalog routes every row of every table by warehouse range. The ITEM
// relation is read-only and replicated in practice; we model it as a
// co-located copy under the home warehouse (reads never leave the region).
//
// The distributed-transaction ratio is controlled as in the paper (§VII-C):
// a NewOrder sources a subset of its stock from a warehouse on another data
// node; a Payment pays for a customer homed on another data node.
#ifndef GEOTP_WORKLOAD_TPCC_H_
#define GEOTP_WORKLOAD_TPCC_H_

#include <array>
#include <vector>

#include "workload/generator.h"

namespace geotp {
namespace workload {

enum TpccTable : uint32_t {
  kWarehouse = 10,
  kDistrict = 11,
  kCustomer = 12,
  kHistory = 13,
  kNewOrderTab = 14,
  kOrders = 15,
  kOrderLine = 16,
  kItem = 17,
  kStock = 18,
};

enum class TpccTxnType : int {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};

struct TpccConfig {
  std::vector<NodeId> data_sources;
  uint64_t warehouses_per_node = 16;
  int districts_per_warehouse = 10;
  uint64_t customers_per_district = 3000;
  uint64_t items = 100000;
  double distributed_ratio = 0.2;
  /// Mix weights for {NewOrder, Payment, OrderStatus, Delivery, StockLevel};
  /// need not sum to 1. The standard mix per TPC-C is ~{45,43,4,4,4}.
  std::array<double, 5> mix = {0.45, 0.43, 0.04, 0.04, 0.04};
};

class TpccGenerator : public WorkloadGenerator {
 public:
  explicit TpccGenerator(TpccConfig config);

  TxnSpec Next(Rng& rng) override;
  void RegisterTables(middleware::Catalog* catalog) const override;

  const TpccConfig& config() const { return config_; }

  // Key encoders (public: tests and benches use them).
  static uint64_t WarehouseKey(uint64_t w) { return w << 48; }
  static uint64_t DistrictKey(uint64_t w, uint64_t d) {
    return (w << 48) | d;
  }
  static uint64_t CustomerKey(uint64_t w, uint64_t d, uint64_t c) {
    return (w << 48) | (d << 32) | c;
  }
  static uint64_t StockKey(uint64_t w, uint64_t item) {
    return (w << 48) | item;
  }
  static uint64_t ItemKey(uint64_t home_w, uint64_t item) {
    return (home_w << 48) | item;
  }

 private:
  TxnSpec NewOrder(Rng& rng);
  TxnSpec Payment(Rng& rng);
  TxnSpec OrderStatus(Rng& rng);
  TxnSpec Delivery(Rng& rng);
  TxnSpec StockLevel(Rng& rng);

  uint64_t TotalWarehouses() const {
    return config_.warehouses_per_node * config_.data_sources.size();
  }
  size_t NodeOfWarehouse(uint64_t w) const {
    return static_cast<size_t>(w / config_.warehouses_per_node);
  }
  /// A warehouse on a different data node than `home` (for distributed
  /// NewOrder/Payment); falls back to home with a single node.
  uint64_t RemoteWarehouse(uint64_t home, Rng& rng);
  /// NURand-style customer id (approximated by zipf-lite uniform here).
  uint64_t PickCustomer(Rng& rng) const;

  TpccConfig config_;
  uint64_t fresh_counter_ = 1;  ///< unique ids for inserted rows
};

}  // namespace workload
}  // namespace geotp

#endif  // GEOTP_WORKLOAD_TPCC_H_
