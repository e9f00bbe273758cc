// rlin: pretty-prints linearizability counterexamples (the JSON files the
// LinChecker writes on shutdown, see RSTORE_RLIN_OUT, and the .rlin.json
// files rexplore saves next to minimized traces). Accepts any number of
// report files, prints each file's search stats (keys inconclusive,
// states) and each violating per-key history with the minimized op core,
// and exits 1 when any file contains a violation — CI feeds it
// the artifact directory so a red gate also shows the human-readable
// counterexample inline.
//
//   rlin report.json [report2.json ...]
#include <cstdio>
#include <string>

#include "obs/json.h"

namespace {

using rstore::obs::JsonValue;

uint64_t Num(const JsonValue* v) {
  return v != nullptr ? static_cast<uint64_t>(v->number) : 0;
}

std::string Str(const JsonValue* v) {
  return v != nullptr ? v->str : std::string();
}

void PrintOp(const JsonValue& op) {
  const bool pending =
      op.Find("pending") != nullptr && op.Find("pending")->boolean;
  std::printf("    op %llu client %llu %s digest=%s inv=%lluns ",
              static_cast<unsigned long long>(Num(op.Find("id"))),
              static_cast<unsigned long long>(Num(op.Find("client"))),
              Str(op.Find("kind")).c_str(), Str(op.Find("digest")).c_str(),
              static_cast<unsigned long long>(Num(op.Find("inv_ns"))));
  const JsonValue* resp = op.Find("resp_ns");
  if (pending || resp == nullptr || !resp->Is(JsonValue::Type::kNumber)) {
    std::printf("resp=never (maybe-applied)\n");
  } else {
    std::printf("resp=%lluns\n",
                static_cast<unsigned long long>(Num(resp)));
  }
}

// Returns the number of violations in the file, or -1 on parse failure.
int PrintFile(const std::string& path) {
  auto root = rstore::obs::ParseJsonFile(path);
  if (!root.ok()) {
    std::fprintf(stderr, "rlin: %s: %s\n", path.c_str(),
                 root.status().message().c_str());
    return -1;
  }
  const JsonValue* violations = root->Find("violations");
  if (violations == nullptr || !violations->Is(JsonValue::Type::kArray)) {
    std::fprintf(stderr, "rlin: %s: no \"violations\" array\n", path.c_str());
    return -1;
  }

  const JsonValue* stats = root->Find("stats");
  const auto stat = [stats](const char* name) {
    return static_cast<unsigned long long>(
        stats != nullptr ? Num(stats->Find(name)) : 0);
  };
  std::printf("%s: %llu op(s) over %llu key(s), %zu violation(s); "
              "%llu key(s) inconclusive, %llu states\n",
              path.c_str(),
              static_cast<unsigned long long>(Num(root->Find("ops"))),
              static_cast<unsigned long long>(Num(root->Find("keys"))),
              violations->array.size(), stat("keys_inconclusive"),
              stat("states"));
  int index = 0;
  for (const JsonValue& v : violations->array) {
    const JsonValue* ops = v.Find("ops");
    const size_t core =
        (ops != nullptr && ops->Is(JsonValue::Type::kArray))
            ? ops->array.size()
            : 0;
    std::printf("  #%d key %s: %llu-op history is not linearizable; "
                "minimized core has %zu op(s)\n",
                ++index, Str(v.Find("key")).c_str(),
                static_cast<unsigned long long>(Num(v.Find("history_ops"))),
                core);
    const std::string detail = Str(v.Find("detail"));
    if (!detail.empty()) std::printf("    %s\n", detail.c_str());
    if (ops != nullptr && ops->Is(JsonValue::Type::kArray)) {
      for (const JsonValue& op : ops->array) PrintOp(op);
    }
  }
  return static_cast<int>(violations->array.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: rlin <report.json>...\n");
    return 2;
  }
  long total = 0;
  bool failed = false;
  for (int i = 1; i < argc; ++i) {
    const int n = PrintFile(argv[i]);
    if (n < 0) {
      failed = true;
    } else {
      total += n;
    }
  }
  std::printf("rlin: %ld violation(s) across %d file(s)\n", total, argc - 1);
  return (failed || total > 0) ? 1 : 0;
}
