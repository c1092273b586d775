// Fixture: must lint clean — exercises every way a finding is legitimately
// absent: allow() suppressions (same line and preceding comment line) and
// rule tokens inside comments/strings. Never compiled; parsed by
// tools/cfest_lint.py --check-fixtures.
namespace cfest_fixture {

struct BridgeToExternalApi {
  // An audited exception: this bridge hands a raw mutex to a C API that
  // cannot take the annotated wrapper.
  std::mutex handoff;  // cfest-lint: allow(raw-mutex)
  // cfest-lint: allow(raw-mutex)
  std::condition_variable handoff_ready;

  // Mentions in comments and strings never fire: std::mutex,
  // int num_rows = 0, "cfest.engine." + table.
  const char* doc = "std::mutex and int num_rows";

  // Row counts in the right type are fine.
  unsigned long long num_rows = 0;
  void Rows(unsigned long long total_rows);
};

}  // namespace cfest_fixture
