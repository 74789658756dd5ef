// Working with external netlists: parse an ISCAS-style .bench file (a path
// may be given as argv[1]; c17 is embedded as the default), inspect SCOAP
// testability, insert an observation point at the least observable node,
// and write the modified netlist back out in .bench syntax.

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"

namespace {

constexpr const char* kC17 = R"(# ISCAS-85 c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace gcnt;

  Netlist netlist;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    netlist = read_bench(in, argv[1]);
  } else {
    netlist = read_bench_string(kC17, "c17");
  }

  const auto problems = netlist.validate();
  if (!problems.empty()) {
    std::cerr << "netlist is not well-formed: " << problems.front() << "\n";
    return 1;
  }
  std::cout << "parsed '" << netlist.name() << "': " << netlist.size()
            << " nodes, " << netlist.primary_inputs().size() << " PIs, "
            << netlist.primary_outputs().size() << " POs, "
            << netlist.flip_flops().size() << " DFFs\n";

  auto scoap = compute_scoap(netlist);
  Table table("SCOAP measures", {"Node", "Type", "CC0", "CC1", "CO"});
  NodeId worst = kInvalidNode;
  std::uint32_t worst_co = 0;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!is_logic(netlist.type(v))) continue;
    table.add_row({std::string(netlist.node_name(v)),
                   std::string(cell_type_name(netlist.type(v))),
                   std::to_string(scoap.cc0[v]), std::to_string(scoap.cc1[v]),
                   std::to_string(scoap.co[v])});
    if (scoap.co[v] >= worst_co) {
      worst_co = scoap.co[v];
      worst = v;
    }
  }
  table.print(std::cout);

  std::cout << "\ninserting an observation point at the least observable "
               "node: "
            << netlist.node_name(worst) << " (CO " << worst_co << ")\n";
  netlist.insert_observe_point(worst);
  update_observability_after_observe(netlist, worst, scoap);
  std::cout << "its CO is now " << scoap.co[worst] << "\n\n";

  std::cout << "modified netlist in .bench syntax:\n"
            << write_bench_string(netlist);
  return 0;
}
