// Self-test of the benchmark's checkers: each must accept a genuine response
// and reject the same response with one defect planted in it, so that every
// correctness check the benchmark relies on is shown to be able to fail.
//
// Genuine responses come from the serve layer in-process (the same functions
// sqzserved answers with); the corrupted copies differ by one number, one
// flag or one byte.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "bench.h"
#include "serve/api.h"

namespace {

using namespace pb;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

/// Rewrite the integer after the `nth` occurrence of `"key":` by `edit`.
std::string edit_number(std::string body, const std::string& key, int nth,
                        const std::function<std::int64_t(std::int64_t)>& edit) {
  const std::string marker = "\"" + key + "\":";
  std::size_t at = 0;
  for (int i = 0; i <= nth; ++i) {
    at = body.find(marker, i ? at + 1 : 0);
    if (at == std::string::npos) throw std::runtime_error("no " + marker);
  }
  std::size_t begin = at + marker.size();
  while (body[begin] == ' ') ++begin;
  std::size_t end = begin;
  while (end < body.size() && (std::isdigit(static_cast<unsigned char>(body[end])) || body[end] == '-'))
    ++end;
  const std::int64_t v = std::stoll(body.substr(begin, end - begin));
  return body.replace(begin, end - begin, std::to_string(edit(v)));
}

std::string flip_first(std::string body, const std::string& from,
                       const std::string& to) {
  const std::size_t at = body.find(from);
  if (at == std::string::npos) throw std::runtime_error("no " + from);
  return body.replace(at, from.size(), to);
}

const Request& first_request(const std::string& workload, bool screened = false) {
  static std::vector<std::unique_ptr<Round>> keep;
  keep.push_back(std::make_unique<Round>(make_workload(workload, 7)->round(0)));
  for (const Request& r : keep.back()->front())
    if (r.screen == screened) return r;
  throw std::runtime_error("no such request in " + workload);
}

}  // namespace

int main() {
  try {
    // A flat simulate report: one access count changed.
    const Request& sim = first_request("simulate-cold");
    const std::string report =
        serve::run_simulate(serve::parse_simulate_request(sim.body));
    expect(check_body(sim, report).empty(), "genuine report passes");
    const std::string bad_count =
        edit_number(report, "rf_reads", 3, [](std::int64_t v) { return v + 1; });
    expect(!check_body(sim, bad_count).empty(),
           "report with one access count changed is rejected: " +
               check_body(sim, bad_count));
    const std::string bad_macs =
        edit_number(report, "useful_macs", 0, [](std::int64_t v) { return v - 1; });
    expect(!check_body(sim, bad_macs).empty(),
           "report with useful_macs changed is rejected: " + check_body(sim, bad_macs));

    // A flat sweep dump: one pareto flag flipped; one point's cycles +1.
    const Request& sweep = first_request("sweep-flat");
    const std::string dump = serve::run_sweep(serve::parse_sweep_request(sweep.body));
    expect(check_body(sweep, dump).empty(), "genuine flat sweep passes");
    const std::string flipped = dump.find("\"pareto\": true") != std::string::npos
                                    ? flip_first(dump, "\"pareto\": true", "\"pareto\": false")
                                    : flip_first(dump, "\"pareto\": false", "\"pareto\": true");
    const std::string pareto_error = check_body(sweep, flipped);
    expect(pareto_error.find("pareto") != std::string::npos,
           "sweep with one pareto flag flipped is rejected: " + pareto_error);
    const std::string cycles_error = check_body(
        sweep, edit_number(dump, "cycles", 0, [](std::int64_t v) { return v + 1; }));
    expect(cycles_error.find("estimator") != std::string::npos,
           "sweep with one point's cycles off by one is rejected: " + cycles_error);

    // A screened timeline sweep: its reported worst error pushed over the bound.
    const Request& screened = first_request("sweep-timeline", true);
    const std::string sdump =
        serve::run_sweep(serve::parse_sweep_request(screened.body));
    expect(check_body(screened, sdump).empty(), "genuine screened sweep passes");
    const std::size_t at = sdump.find("\"screen_error_max_pct\": ");
    std::string over = sdump;
    if (at != std::string::npos) {
      const std::size_t begin = at + std::strlen("\"screen_error_max_pct\": ");
      const std::size_t end = over.find_first_of(",\n}", begin);
      over.replace(begin, end - begin, "5.5");
    }
    expect(!check_body(screened, over).empty(),
           "screened sweep reporting 5.5 % error is rejected: " +
               check_body(screened, over));

    // A repeated body altered by one byte.
    RepeatLedger ledger;
    bool first = false;
    expect(ledger.observe(3, report, &first).empty() && first, "first body is kept");
    expect(ledger.observe(3, report, &first).empty() && !first,
           "identical repeat passes");
    std::string altered = report;
    altered[altered.size() / 2] ^= 1;
    expect(!ledger.observe(3, altered, &first).empty(),
           "repeat altered by one byte is rejected");
  } catch (const std::exception& e) {
    std::cout << "FAIL exception: " << e.what() << "\n";
    return 1;
  }
  std::cout << (failures ? "selftest FAILED\n" : "selftest passed\n");
  return failures ? 1 : 0;
}
