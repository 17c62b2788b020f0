// Tables I & II: the time/space attributes of the PAMI communication
// objects, measured from the simulator exactly the way the paper
// measured them ("computed by calculating the actual time during
// program execution"), plus the space/time complexity models of
// S III-B evaluated at representative parameter values.
#include "common.hpp"
#include "pami/machine.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_table2_attributes: PAMI time & space attributes",
                      "Tables I and II — alpha/beta/gamma/delta/epsilon/rho");

  pami::MachineConfig mcfg;
  mcfg.num_ranks = static_cast<int>(cli.get_int("ranks", 2));
  cli.reject_unused();
  mcfg.ranks_per_node = 1;
  pami::Machine machine(mcfg);

  Time client_t = 0, context_t = 0, endpoint_t = 0, memregion_t = 0;
  std::vector<std::byte> buffer(4096);
  machine.run([&](pami::Process& proc) {
    if (proc.rank() != 0) return;
    Time t0 = proc.now();
    proc.create_client();
    client_t = proc.now() - t0;
    t0 = proc.now();
    proc.create_context();
    context_t = proc.now() - t0;
    t0 = proc.now();
    proc.create_endpoint(1, 0);
    endpoint_t = proc.now() - t0;
    t0 = proc.now();
    auto region = proc.create_memregion(buffer.data(), buffer.size());
    memregion_t = proc.now() - t0;
    PGASQ_CHECK(region.has_value());
  });

  const auto& p = machine.params();
  Table table({"property", "symbol", "measured"});
  table.row().add(std::string("Endpoint space utilization")).add(std::string("alpha"))
      .add(std::to_string(p.endpoint_bytes) + " bytes");
  table.row().add(std::string("Endpoint creation time")).add(std::string("beta"))
      .add(std::to_string(to_us(endpoint_t)) + " us");
  table.row().add(std::string("Memory region space utilization")).add(std::string("gamma"))
      .add(std::to_string(p.memregion_bytes) + " bytes");
  table.row().add(std::string("Memory region creation time")).add(std::string("delta"))
      .add(std::to_string(to_us(memregion_t)) + " us");
  table.row().add(std::string("Context space utilization")).add(std::string("epsilon"))
      .add(std::to_string(p.context_bytes) + " bytes (modeled)");
  table.row().add(std::string("Context creation time")).add(std::string("rho_t"))
      .add(std::to_string(to_us(context_t)) + " us");
  table.row().add(std::string("Client creation time")).add(std::string("-"))
      .add(std::to_string(to_us(client_t)) + " us");
  table.print();

  // Complexity models of S III-B at representative values.
  std::printf("\nSpace/time models (Eqs 1-6) at rho=2, zeta=4096, sigma=7, tau=3:\n");
  const double rho = 2, zeta = 4096, sigma = 7, tau = 3;
  Table models({"model", "formula", "value"});
  models.row().add(std::string("M_c  (context space)")).add(std::string("eps*rho"))
      .add(std::to_string(static_cast<long long>(p.context_bytes * rho)) + " bytes");
  models.row().add(std::string("T_c  (context time)")).add(std::string("rho_t*rho"))
      .add(std::to_string(to_us(p.context_create) * rho) + " us");
  models.row().add(std::string("M_e  (endpoint space)")).add(std::string("zeta*alpha*rho"))
      .add(std::to_string(static_cast<long long>(zeta * p.endpoint_bytes * rho)) + " bytes");
  models.row().add(std::string("T_e  (endpoint time)")).add(std::string("zeta*beta*rho"))
      .add(std::to_string(to_us(p.endpoint_create) * zeta * rho) + " us");
  models.row().add(std::string("M_r  (region space)")).add(std::string("tau*gamma + sigma*zeta*gamma"))
      .add(std::to_string(static_cast<long long>(
               tau * p.memregion_bytes + sigma * zeta * p.memregion_bytes)) + " bytes");
  models.row().add(std::string("T_r  (region time)")).add(std::string("tau*delta + sigma*delta"))
      .add(std::to_string(to_us(p.memregion_create) * (tau + sigma)) + " us");
  models.print();
  return 0;
}
