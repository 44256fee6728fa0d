// Two-dimensional parameter sweeps (IOzone-style matrices).
//
// The paper cites Chen & Patterson's self-scaling benchmarks as the way to
// "collect data for such graphs" — performance as a *surface* over workload
// parameters rather than a point. SweepMatrix runs one experiment per
// (row, column) parameter pair and renders the surface, with each cell
// carrying its own multi-run summary so fragile regions are visible as
// high-variance cells, not as mysterious noise.
#ifndef SRC_CORE_SWEEP_H_
#define SRC_CORE_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.h"

namespace fsbench {

struct SweepCell {
  double row_param = 0.0;
  double col_param = 0.0;
  Summary throughput;
  double cache_hit_ratio = 0.0;
  bool ok = false;

  bool operator==(const SweepCell& other) const = default;
};

struct SweepMatrixResult {
  std::string row_label;
  std::string col_label;
  std::vector<double> row_params;
  std::vector<double> col_params;
  // cells[r * col_params.size() + c]
  std::vector<SweepCell> cells;

  const SweepCell& at(size_t row, size_t col) const {
    return cells[row * col_params.size() + col];
  }
  bool operator==(const SweepMatrixResult& other) const = default;
};

class SweepMatrix {
 public:
  // Builds a workload for one (row, col) parameter pair.
  using CellWorkloadFactory =
      std::function<std::unique_ptr<Workload>(double row_param, double col_param)>;

  SweepMatrix(std::string row_label, std::vector<double> row_params, std::string col_label,
              std::vector<double> col_params);

  // Runs `config`-shaped experiments for every cell. Cells execute on the
  // host-parallel pool (config.jobs; see src/core/parallel_runner.h) with
  // per-cell seeds from DeriveCellSeed(config.base_seed, row, col, 0);
  // results land in row-major slots by cell index, so the matrix is
  // byte-identical for every jobs value. A cell whose experiment throws is
  // marked ok == false; its neighbours are unaffected.
  SweepMatrixResult Run(const ExperimentConfig& config, const MachineFactory& machine_factory,
                        const CellWorkloadFactory& workload_factory) const;

 private:
  std::string row_label_;
  std::vector<double> row_params_;
  std::string col_label_;
  std::vector<double> col_params_;
};

// Renders mean throughput as a matrix; cells whose relative stddev exceeds
// `fragile_pct` are flagged with '!' (the paper's fragile operating points).
std::string RenderSweepMatrix(const SweepMatrixResult& result, double fragile_pct = 10.0);

// CSV: row_param,col_param,mean,stddev,rel_stddev_pct,hit_ratio.
std::string CsvSweepMatrix(const SweepMatrixResult& result);

}  // namespace fsbench

#endif  // SRC_CORE_SWEEP_H_
