// The pgbench subcommands implemented outside pgbench.cpp.
#pragma once

#include "common.hpp"

namespace probgraph {}

namespace pgbench {

using namespace probgraph;

/// Closed-loop TCP client against a `pgtool serve --listen` server.
int cmd_load(const Flags& f);

/// The traced run: spans around in-process calls into each layer.
int cmd_trace(const Flags& f);

}  // namespace pgbench
