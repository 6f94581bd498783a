// dphist command-line tool: synthesize data, publish differentially
// private histogram releases, and query them. See --help / usage output.

#include <iostream>

#include "tools/cli_commands.h"

int main(int argc, char** argv) {
  // Unsynced, std::cin buffers its own input, so `serve --stdin` can see
  // that more piped lines are waiting and flush only when it is drained.
  std::ios::sync_with_stdio(false);
  return dphist::cli::Main(argc, argv, std::cout, std::cerr);
}
