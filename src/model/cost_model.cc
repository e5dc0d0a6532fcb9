#include "model/cost_model.h"

#include <algorithm>
#include <cstdio>

namespace uot {

double CostModel::P1Prime(double uot_bytes, int threads) const {
  return std::min(1.0, 2.0 * uot_bytes * threads / p_.l3_bytes);
}

double CostModel::P2(double uot_bytes) const {
  return std::min(1.0, p_.p2_scale_bytes / uot_bytes);
}

double CostModel::NonPipeliningExtraCost(uint64_t num_uots,
                                         double uot_bytes) const {
  const double n = static_cast<double>(num_uots);
  return W_mem(uot_bytes) * n + AR_L3(uot_bytes) * n + p_.p1 * n * M_L3();
}

double CostModel::PipeliningExtraCost(uint64_t num_uots, double uot_bytes,
                                      int threads) const {
  const double n = static_cast<double>(num_uots);
  const double p1p = P1Prime(uot_bytes, threads);
  const double p2 = P2(uot_bytes);
  return 2.0 * n * IC() + p2 * n * (M_L3() + R_L3(uot_bytes)) +
         p1p * (M_L3() + R_L3(uot_bytes) + W_mem(uot_bytes)) * n;
}

double CostModel::CostRatio(double uot_bytes, int threads) const {
  // Equation (1): instruction-cache terms dropped, N cancels.
  const double p1p = P1Prime(uot_bytes, threads);
  const double p2 = P2(uot_bytes);
  const double numerator =
      AR_L3(uot_bytes) + W_mem(uot_bytes) + p_.p1 * M_L3();
  const double denominator =
      p2 * (M_L3() + R_L3(uot_bytes)) +
      p1p * (M_L3() + R_L3(uot_bytes) + W_mem(uot_bytes));
  return numerator / denominator;
}

double CostModel::StoreExtraCostHighUot(uint64_t num_uots,
                                        double uot_bytes) const {
  const double n = static_cast<double>(num_uots);
  return n * uot_bytes / p_.store_read_bw +
         n * uot_bytes / p_.store_write_bw;
}

double CostModel::StoreExtraCostLowUot(uint64_t num_uots) const {
  return 2.0 * static_cast<double>(num_uots) * IC();
}

double CostModel::FusedChainCost(const std::vector<uint64_t>& edge_rows,
                                 uint64_t row_group_rows) const {
  double cost = 0.0;
  for (const uint64_t rows : edge_rows) {
    const uint64_t granules =
        std::max<uint64_t>(1, (rows + row_group_rows - 1) / row_group_rows);
    cost += 2.0 * static_cast<double>(granules) * IC() +
            static_cast<double>(rows) * p_.fused_row_penalty_ns;
  }
  return cost;
}

std::string CostModel::Describe() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "CostModel{L3=%.1f MB, read=%.1f B/ns, seq_read=%.1f B/ns, "
                "write=%.1f B/ns, M_L3=%.0f ns, IC=%.0f ns, p1=%.2f}",
                p_.l3_bytes / (1024.0 * 1024.0), p_.read_bw, p_.seq_read_bw,
                p_.write_bw, p_.l3_miss_ns, p_.icache_miss_ns, p_.p1);
  return buf;
}

}  // namespace uot
