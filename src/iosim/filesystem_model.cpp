#include "iosim/filesystem_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cf::iosim {

FilesystemSpec FilesystemSpec::cori_lustre() {
  FilesystemSpec spec;
  spec.name = "cori-lustre";
  // Calibrated to the paper's measured step times: ~53 MB/s/node at
  // 128 clients (179 ms step vs 129 ms compute) and ~42 MB/s/node at
  // 1024 (58% efficiency) imply S(n) ~ 0.086 * n^0.9 GB/s — far below
  // the filesystem's 700 GB/s streaming peak, as expected for shared
  // random reads over a 64-OST stripe.
  spec.prefactor_gbps = 0.0863;
  spec.gamma = 0.897;
  spec.aggregate_max_gbps = 280.0;
  spec.node_max_gbps = 2.0;  // single-client ceiling over 64 OSTs
  spec.straggler_sigma = 0.35;
  return spec;
}

FilesystemSpec FilesystemSpec::cori_datawarp() {
  FilesystemSpec spec;
  spec.name = "cori-datawarp";
  // 1.7 TB/s measured peak over 288 DataWarp nodes; supply is linear
  // in clients until the peak. Demand at 8192 nodes is 8192 * 62 MB/s
  // = 0.5 TB/s — comfortably inside supply, hence no I/O knee.
  spec.prefactor_gbps = 2.0;
  spec.gamma = 1.0;
  spec.aggregate_max_gbps = 1700.0;
  spec.node_max_gbps = 2.0;
  spec.straggler_sigma = 0.10;
  return spec;
}

FilesystemSpec FilesystemSpec::piz_daint_lustre() {
  FilesystemSpec spec;
  spec.name = "pizdaint-lustre";
  // 40 OSTs / 112 GB/s peak, 16-OST striping, heavily shared;
  // calibrated to the 44% efficiency at 512 nodes the paper reports
  // (P100 nodes compute a step in ~179 ms).
  spec.prefactor_gbps = 0.090;
  spec.gamma = 0.769;
  spec.aggregate_max_gbps = 30.0;
  spec.node_max_gbps = 1.5;
  spec.straggler_sigma = 0.40;
  return spec;
}

FilesystemModel::FilesystemModel(FilesystemSpec spec)
    : spec_(std::move(spec)) {
  if (spec_.prefactor_gbps <= 0.0 || spec_.gamma <= 0.0 ||
      spec_.gamma > 1.0 || spec_.aggregate_max_gbps <= 0.0 ||
      spec_.node_max_gbps <= 0.0 || spec_.straggler_sigma < 0.0) {
    throw std::invalid_argument("FilesystemModel: bad spec");
  }
}

double FilesystemModel::aggregate_bandwidth_gbps(int nodes) const {
  if (nodes <= 0) throw std::invalid_argument("nodes must be positive");
  const double n = static_cast<double>(nodes);
  const double supply = spec_.prefactor_gbps * std::pow(n, spec_.gamma);
  // A single client can also be NIC-bound.
  return std::min({supply, spec_.aggregate_max_gbps,
                   n * spec_.node_max_gbps});
}

double FilesystemModel::node_bandwidth_gbps(int nodes) const {
  return aggregate_bandwidth_gbps(nodes) / static_cast<double>(nodes);
}

double FilesystemModel::read_seconds(int nodes, double mbytes) const {
  if (mbytes < 0.0) throw std::invalid_argument("mbytes must be >= 0");
  return mbytes / 1000.0 / node_bandwidth_gbps(nodes);
}

double FilesystemModel::sample_read_seconds(int nodes, double mbytes,
                                            runtime::Rng& rng) const {
  const double expected = read_seconds(nodes, mbytes);
  if (spec_.straggler_sigma == 0.0) return expected;
  // Lognormal with unit mean: exp(sigma * z - sigma^2 / 2).
  const double sigma = spec_.straggler_sigma;
  const double z = rng.normal();
  return expected * std::exp(sigma * z - 0.5 * sigma * sigma);
}

double bw_min_mb_per_s(double batch_per_node, double sample_mbytes,
                       double step_seconds) {
  if (step_seconds <= 0.0) {
    throw std::invalid_argument("bw_min: step_seconds must be > 0");
  }
  return batch_per_node * sample_mbytes / step_seconds;
}

double nodes_fed_per_ost(double ost_gbps, double bw_min_mb_per_s_value) {
  if (bw_min_mb_per_s_value <= 0.0) {
    throw std::invalid_argument("nodes_fed_per_ost: BWmin must be > 0");
  }
  return ost_gbps * 1000.0 / bw_min_mb_per_s_value;
}

}  // namespace cf::iosim
