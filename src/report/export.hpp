// Machine-readable figure export: every bench prints ASCII for the
// terminal and can also drop CSV artefacts for real plotting.
#pragma once

#include <string>
#include <vector>

#include "report/ascii.hpp"

namespace bf::report {

/// Write one or more aligned series to CSV: column "x" then one column
/// per series name. All series must share the same x grid.
void export_series_csv(const std::string& path,
                       const std::vector<Series>& series);

/// Write (label, value) bars to CSV with columns label,value.
void export_bars_csv(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& bars);

}  // namespace bf::report
