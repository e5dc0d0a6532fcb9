#ifndef UOT_MODEL_COST_MODEL_H_
#define UOT_MODEL_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace uot {

/// Parameters of the Section V analytical model (paper Table I), expressed
/// as hardware rates so the per-UoT costs R_h, AR_h, W_h scale with the UoT
/// size B.
///
/// Defaults are calibrated to the paper's evaluation platform (Table V:
/// dual Haswell EP, 25 MB L3): sequential prefetched reads are much faster
/// than disrupted reads (AR_L3 << R_L3) and memory writes are the dominant
/// per-byte cost, which is what drives the paper's conclusion that the two
/// strategies converge.
struct CostModelParams {
  double l3_bytes = 25.0 * 1024 * 1024;

  /// Bytes/ns of a *disrupted* (non-prefetched) read — the rate paid until
  /// the hardware prefetcher re-detects the stream.
  double read_bw = 10.0;
  /// Bytes read at the disrupted rate before the prefetcher locks back on;
  /// beyond this, R_L3 proceeds at the sequential rate. This captures the
  /// paper's observation that "the miss penalty will decrease quickly" once
  /// the access pattern is detected, and is what makes R_L3 -> AR_L3 for
  /// multi-megabyte UoTs (Section V-A's high-UoT regime).
  double prefetch_ramp_bytes = 128.0 * 1024;
  /// Bytes/ns of a sequential prefetched read — determines AR_L3.
  /// AR_L3 << R_L3 per the paper.
  double seq_read_bw = 40.0;
  /// Bytes/ns of writing a UoT from cache to memory — determines W_mem.
  /// Writes are the dominant cost in both regimes (Section V-A).
  double write_bw = 8.0;

  /// One-time L3 miss penalty per UoT access, ns (M_L3).
  double l3_miss_ns = 90.0;
  /// Instruction-cache refill cost per operator context switch, ns (IC).
  double icache_miss_ns = 400.0;

  /// p1: probability that reading a probe input UoT misses L3 in the
  /// non-pipelining case (hash-table reads disrupt the sequential stream).
  double p1 = 0.8;
  /// Scale B0 for p2(B) = min(1, B0 / B): the probability that the select
  /// operator's stream was evicted when control switches back from the
  /// probe. Small UoTs switch often -> p2 ~ 1; large UoTs amortize.
  double p2_scale_bytes = 256.0 * 1024;

  /// ns/row of scalar tuple-at-a-time stage dispatch in a fused chain:
  /// fused execution forfeits the batched/prefetching kernels and their
  /// instruction-level parallelism, so every row crossing a fused interior
  /// edge pays this penalty. The counterweight to the W_mem/AR_L3 savings:
  /// narrow intermediates (cheap to materialize) stay vectorized, wide
  /// ones fuse.
  double fused_row_penalty_ns = 2.0;

  // ---- persistent-store variant (Section V-C) ----
  /// Bytes/ns of the persistent store (default ~0.5 GB/s: an SSD).
  double store_read_bw = 0.5;
  double store_write_bw = 0.4;
};

/// The Section V analytical model for the select -> probe producer/consumer
/// pair: quantifies only the *extra* work each strategy performs relative
/// to the other (costs common to all UoT values cancel).
class CostModel {
 public:
  explicit CostModel(CostModelParams params = CostModelParams())
      : p_(params) {}

  const CostModelParams& params() const { return p_; }

  // Per-UoT component costs (ns) for UoT size `uot_bytes`.
  /// Disrupted read: the first `prefetch_ramp_bytes` at the slow rate, the
  /// remainder at the prefetched sequential rate.
  double R_L3(double uot_bytes) const {
    const double ramp =
        uot_bytes < p_.prefetch_ramp_bytes ? uot_bytes
                                           : p_.prefetch_ramp_bytes;
    return ramp / p_.read_bw + (uot_bytes - ramp) / p_.seq_read_bw;
  }
  double AR_L3(double uot_bytes) const { return uot_bytes / p_.seq_read_bw; }
  double W_mem(double uot_bytes) const { return uot_bytes / p_.write_bw; }
  double M_L3() const { return p_.l3_miss_ns; }
  double IC() const { return p_.icache_miss_ns; }

  /// p1' = min(1, 2BT / |L3|): the likelihood that a probe input written by
  /// the producer is no longer in L3 when the consumer reads it.
  double P1Prime(double uot_bytes, int threads) const;

  /// p2(B): probability the select stream misses L3 after a context switch
  /// back from the probe.
  double P2(double uot_bytes) const;

  /// Extra work of the non-pipelining strategy (UoT = whole table), per
  /// Section V:  W_mem·N_out + AR_L3·N_in + p1·N_in·M_L3,
  /// with N_in = N_out = `num_uots` select-output/probe-input UoTs.
  double NonPipeliningExtraCost(uint64_t num_uots, double uot_bytes) const;

  /// Extra work of the pipelining strategy (small UoT), per Section V:
  /// (N_out+N_in)·IC + p2·N_in·(M_L3+R_L3) + p1'·(M_L3+R_L3+W_mem)·N_in.
  double PipeliningExtraCost(uint64_t num_uots, double uot_bytes,
                             int threads) const;

  /// Equation (1): the ratio of non-pipelining to pipelining extra cost
  /// (N_probe_in cancels; instruction-cache terms are dropped as the paper
  /// does when simplifying).
  double CostRatio(double uot_bytes, int threads) const;

  // ---- Section V-C: persistent store with an in-memory buffer pool ----

  /// Extra cost for large UoT values: R_store·N_in + W_store·N_out.
  double StoreExtraCostHighUot(uint64_t num_uots, double uot_bytes) const;

  /// Extra cost for small UoT values: (N_out + N_in)·IC.
  double StoreExtraCostLowUot(uint64_t num_uots) const;

  // ---- fused-pipeline extension (ROADMAP item 3: the far-low end of the
  // UoT spectrum) ----

  /// Extra work of executing a fused chain tuple-at-a-time instead of
  /// vectorizing its interior edges: per interior edge i carrying
  /// edge_rows[i] rows, the bound stage functions switch contexts once per
  /// `row_group_rows`-row granule ((N_out + N_in)·IC with
  /// N = ceil(rows/row_group_rows)) and every row pays the scalar
  /// dispatch penalty (fused_row_penalty_ns) — but the granule never
  /// leaves cache, so the W_mem / AR_L3 / M_L3 terms both vectorized
  /// strategies pay per UoT vanish. Compare against the sum of the
  /// per-edge chosen costs (UotChoice::chosen_cost_ns) of the same edges.
  double FusedChainCost(const std::vector<uint64_t>& edge_rows,
                        uint64_t row_group_rows) const;

  std::string Describe() const;

 private:
  CostModelParams p_;
};

}  // namespace uot

#endif  // UOT_MODEL_COST_MODEL_H_
