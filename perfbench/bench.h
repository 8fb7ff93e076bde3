// Shared declarations of the end-to-end benchmark (perfbench/README.md):
// seeded workload generation, the response checkers, and the traced
// in-process replay.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.h"
#include "sched/network_sim.h"
#include "sim/config.h"
#include "util/json_parse.h"

namespace pb {

using namespace sqz;

// --- inputs ----------------------------------------------------------------

/// One network of the request mix. Zoo networks are sent by name; the
/// SqueezeNext variants travel as inline model text.
struct ModelEntry {
  std::string label;  ///< Zoo name, or "sqnxt23-vN".
  bool inline_text = false;
  nn::Model model;
  std::string text;  ///< nn::serialize_model(model), sent as model_text.
};

/// The ten networks: AlexNet, SqueezeNet v1.0/v1.1, MobileNet, Tiny Darknet
/// and SqNxt-23 v1..v5.
const std::vector<ModelEntry>& models();

/// One design point: a network on a Squeezelerator variant.
struct PointSpec {
  int model = 0;
  int array_n = 32;
  int rf_entries = 16;
  double sparsity = 0.4;
  double dram = 16.0;  ///< dram_bytes_per_cycle
  bool energy_objective = false;
  bool timeline = false;
  bool tile_search = false;
};

enum class Knob { Rf, ArrayN, Sparsity, Dram };

struct Request {
  bool sweep = false;
  PointSpec point;  ///< The simulated point, or the sweep's base.
  Knob knob = Knob::Rf;
  std::vector<double> values;
  bool screen = false;
  double screen_keep = 0.25;
  int key = -1;        ///< simulate-repeat: working-set slot; -1 elsewhere.
  std::string body;    ///< JSON request body.

  const char* path() const { return sweep ? "/v1/sweep" : "/v1/simulate"; }
  /// Design points the request asks for (1 for a simulate).
  std::size_t points() const { return sweep ? values.size() : 1; }
};

sim::AcceleratorConfig config_of(const PointSpec& p);
sched::SimulationOptions options_of(const PointSpec& p);
/// The configurations a sweep request expands to, in input order.
std::vector<sim::AcceleratorConfig> sweep_point_configs(const Request& r);
/// Fill r.body from the other fields.
void render_body(Request& r);

/// A round is a list of phases; the requests of one phase may run in any
/// order on any connection, and a phase starts only when the previous one
/// has finished on every connection.
using Phase = std::vector<Request>;
using Round = std::vector<Phase>;

struct ServerShape {
  int jobs = 1;
  int connections = 2;
  std::size_t cache_entries = 1024;
  std::size_t plan_cache_entries = 256;
};

/// What /metrics must read after the run, given the rounds sent.
struct Expected {
  std::uint64_t result_hits = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t simulations = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual ServerShape shape() const = 0;
  /// The untimed warm-up, sent before timing starts.
  virtual Round warmup() = 0;
  /// Timed round `r` (0-based).
  virtual Round round(std::size_t r) = 0;
  /// Rounds replayed by the traced run.
  virtual std::size_t traced_rounds() const = 0;
  /// /metrics prediction after the warm-up and `rounds` timed rounds.
  virtual Expected expected(std::size_t rounds) const = 0;
  /// Human-readable make-up of the inputs (printed with the provenance).
  virtual std::string describe() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// --- checks ----------------------------------------------------------------

/// Check a served body against computations made apart from the server.
/// Returns "" when it passes, else the first violation.
std::string check_body(const Request& r, const std::string& body);

/// Byte-identity of repeated bodies: remembers the first body served per
/// working-set slot and compares every later one with it.
class RepeatLedger {
 public:
  /// "" when `body` is the first for `key` or equals the first.
  /// `first` is set when this was the first body for the slot.
  std::string observe(int key, const std::string& body, bool* first);

 private:
  std::map<int, std::string> first_;
};

// --- timing ---------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pb
