// Fig. 8 reproduction:
//   (a) MAC output ranges of the proposed 2T-1FeFET array (8 cells/row)
//       over 0-85 degC - no overlap; NMR_min = 0.22 overall and 2.3 when
//       restricted to 20-85 degC in the paper;
//   (b) energy per operation at each MAC output - paper average 3.14 fJ,
//       i.e. 2866 TOPS/W at 9 ops per row MAC.
#include <cstdio>
#include <string>

#include "cim/energy.hpp"
#include "cim/mac.hpp"
#include "trace/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace sfc;
using namespace sfc::cim;

int main(int argc, char** argv) {
  trace::install_cli_observability(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr,
                 "%s: unknown argument '%s'\n"
                 "usage: %s [--trace OUT.json] [--metrics OUT.json]\n",
                 argv[0], argv[1], argv[0]);
    return 2;
  }
  std::printf("== Fig. 8(a): 2T-1FeFET array MAC output ranges, 0-85 degC ==\n\n");

  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  const std::vector<double> temps = default_temperature_grid();
  const LevelSweepResult sweep = mac_level_sweep(cfg, temps);
  const auto nmr = noise_margin_rates(sweep.levels);

  util::Table table({"MAC", "V_lo [V]", "V_hi [V]", "NMR_i",
                     "E/op [fJ]"});
  util::CsvWriter csv("bench_fig8_2t_levels.csv",
                      {"mac", "v_lo", "v_hi", "nmr", "energy_per_op_j"});
  for (std::size_t k = 0; k < sweep.levels.size(); ++k) {
    const auto& level = sweep.levels[k];
    table.add_row({std::to_string(level.mac), util::fmt(level.lo, 4),
                   util::fmt(level.hi, 4),
                   k < nmr.size() ? util::fmt(nmr[k], 3) : "-",
                   util::fmt(sweep.energy_per_op_by_mac[k] * 1e15, 4)});
    csv.row({static_cast<double>(level.mac), level.lo, level.hi,
             k < nmr.size() ? nmr[k] : 0.0, sweep.energy_per_op_by_mac[k]});
  }
  std::printf("%s\n", table.render().c_str());

  const NmrSummary all = summarize_nmr(sweep.levels);
  const LevelSweepResult warm_sweep =
      mac_level_sweep(cfg, {20.0, 27.0, 40.0, 55.0, 70.0, 85.0});
  const NmrSummary warm = summarize_nmr(warm_sweep.levels);
  std::printf(
      "separability (Fig. 8a):\n"
      "  0-85 degC:  NMR_min = %.3f at MAC=%d  (paper 0.22 at MAC=0)  -> %s\n"
      "  20-85 degC: NMR_min = %.3f at MAC=%d  (paper 2.3 at MAC=7)\n"
      "  warm-range margin improves: %s (paper: yes)\n\n",
      all.nmr_min, all.argmin_mac,
      all.separable ? "separable, no overlap" : "OVERLAP",
      warm.nmr_min, warm.argmin_mac,
      warm.nmr_min > all.nmr_min ? "yes" : "no");

  std::printf("== Fig. 8(b): energy per operation ==\n\n");
  const EnergySummary energy = measure_energy(cfg, 27.0);
  std::printf(
      "  mean energy/op: %.3f fJ   (paper 3.14 fJ)\n"
      "  energy efficiency: %.0f TOPS/W   (paper 2866 TOPS/W)\n"
      "  energy grows with MAC value: %s (paper: yes)\n"
      "  note: our calibrated bias sits deeper in subthreshold than the\n"
      "  paper's silicon, so the absolute energy lands below 3.14 fJ while\n"
      "  the ordering vs. Table II designs is preserved (see table2 bench).\n",
      energy.mean_energy_per_op * 1e15, energy.tops_per_watt,
      energy.energy_per_op_by_mac[8] > energy.energy_per_op_by_mac[1]
          ? "yes"
          : "no");
  return 0;
}
