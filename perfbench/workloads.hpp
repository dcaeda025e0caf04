// The benchmark's workloads. Each one sets up (kSetupRepetitions times),
// runs its timed passes through PassLoop, checks the program's outputs
// (a failed check is a failed op) and reports its metrics.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_row_width_sweep(Report& report, SpanLog& spans);
void run_montecarlo_fig9(Report& report, SpanLog& spans);
void run_vgg_cim_inference(Report& report, SpanLog& spans);

}  // namespace perfbench
