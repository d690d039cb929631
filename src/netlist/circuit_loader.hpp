// Circuit specs: builtin generator names and .bench files behind one call.
//
// The CLI, the job server, and the examples all accept a "circuit spec":
// either one of the builtin generators (c17 plus the six Table 1 stand-ins)
// or a path to an ISCAS85 .bench netlist. This helper centralizes the
// resolution — including the error UX: a spec that *looks like* a builtin
// name but is not one (e.g. "c432") reports the valid builtin list instead
// of a confusing file-open failure.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace iddq::netlist {

/// Names of the builtin generator circuits, sorted ("c17", "c1908", ...).
[[nodiscard]] std::vector<std::string> builtin_circuit_names();

/// True when `spec` (case-insensitive) names a builtin generator.
[[nodiscard]] bool is_builtin_circuit(std::string_view spec);

/// Loads a circuit spec: a builtin generator name (case-insensitive) or a
/// .bench file path. Throws iddq::Error with the valid builtin list when
/// the spec looks like a generator name but is unknown, and the usual
/// parse/IO errors for file specs.
[[nodiscard]] Netlist load_circuit(const std::string& spec);

}  // namespace iddq::netlist
