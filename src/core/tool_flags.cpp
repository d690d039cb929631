#include "core/tool_flags.hpp"

#include "sim/coverage.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace iddq::core {

using namespace support::flags;

void add_flow_flags(support::FlagTable& flags, FlowEngineConfig& config) {
  config.optimizers.es.max_generations = kToolGenerations;
  CoverageOptions& coverage = config.coverage;
  flags
      .add("--rail", "MV",
           "rail perturbation limit r in mV (default " +
               str::format_sig(config.sensor.r_max_mv) + ", > 0)",
           positive_double(config.sensor.r_max_mv))
      .add("--disc", "D",
           "required discriminability d (default " +
               str::format_sig(config.sensor.d_min) + ", > 1)",
           // SensorSpec::validate owns the bound, so a d the flow would
           // reject at run time is a usage error here.
           [&sensor = config.sensor](
               const std::string& v) -> std::optional<std::string> {
             elec::SensorSpec probe = sensor;
             if (!str::parse_double(v, probe.d_min))
               return "must be a number (got " + v + ")";
             try {
               probe.validate();
             } catch (const Error& e) {
               return std::string(e.what()) + " (got " + v + ")";
             }
             sensor.d_min = probe.d_min;
             return std::nullopt;
           })
      .add("--generations", "N",
           "ES generation cap (default " + std::to_string(kToolGenerations) +
               ", >= 1)",
           size_at_least(config.optimizers.es.max_generations, 1))
      .add("--coverage", "",
           "grade every row's partition by measured IDDQ fault coverage "
           "(docs/coverage.md)",
           switch_on(coverage.enabled))
      .add("--fault-model", "SPEC",
           "coverage fault model: mixed | bridges | shorts | "
           "bridges=N[,shorts=M] (default " + coverage.fault_model + ")",
           [&coverage](const std::string& v) -> std::optional<std::string> {
             try {
               (void)sim::FaultModelSpec::parse(v);
             } catch (const Error& e) {
               return e.what();
             }
             coverage.fault_model = v;
             return std::nullopt;
           })
      .add("--patterns", "N",
           "coverage test patterns (default " +
               std::to_string(coverage.patterns) + ")",
           size_at_least(coverage.patterns, 1))
      .add("--minimize-patterns", "", "greedy set-cover pattern minimization",
           switch_on(coverage.minimize));
}

void add_library_flag(support::FlagTable& flags,
                      std::optional<std::string>& lib_path) {
  flags.add("--lib", "FILE", "cell library file (default: built-in 5V CMOS)",
            optional_text(lib_path));
}

void add_engine_flags(support::FlagTable& flags, EngineFlags& engine) {
  add_library_flag(flags, engine.lib_path);
  flags
      .add("--threads", "N",
           "intra-run thread pool shared by every run (default 1 or "
           "IDDQ_THREADS; identical results for any N)",
           positive_count(engine.threads))
      .add("--cache-dir", "DIR",
           "content-addressed result cache (docs/caching.md)",
           optional_text(engine.cache_dir))
      .add("--cache-resident", "N",
           "cap in-memory cache entries at N; older entries spill to disk "
           "(default: unbounded)",
           size_at_least(engine.cache_resident, 1));
}

void add_serve_flags(support::FlagTable& flags, ServeEndpoint& endpoint,
                     JobProtocolOptions& protocol) {
  protocol.session_queue = 1024;
  flags
      .add("--pipe", "", "one session on stdin/stdout (default)",
           [&endpoint](const std::string&) -> std::optional<std::string> {
             endpoint = {};
             return std::nullopt;
           })
      .add("--socket", "PATH", "listen on a unix-domain socket",
           [&endpoint](const std::string& v) -> std::optional<std::string> {
             endpoint = {ServeEndpoint::Kind::unix_socket, v, 0};
             return std::nullopt;
           })
      .add("--listen", "H:P",
           "listen on a TCP host:port (port 0 = ephemeral, announced on "
           "stderr)",
           // Unlike --submit, --listen is TCP-only, so port 0 is meaningful
           // here and parsed by hand rather than by parse_host_port.
           [&endpoint](const std::string& v) -> std::optional<std::string> {
             const auto colon = v.rfind(':');
             std::size_t port = 0;
             if (colon == std::string::npos || colon == 0 ||
                 !str::parse_size(v.substr(colon + 1), port) || port > 65535)
               return "needs host:port (port 0 = ephemeral)";
             endpoint = {ServeEndpoint::Kind::tcp, v.substr(0, colon),
                         static_cast<std::uint16_t>(port)};
             return std::nullopt;
           })
      .add("--session-queue", "N",
           "per-session event-queue bound (default " +
               std::to_string(protocol.session_queue) + "; 0 = unbounded)",
           size_at_least(protocol.session_queue, 0));
}

}  // namespace iddq::core
