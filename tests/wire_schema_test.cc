// The wire layout of every message, rendered from its Fields() list by the
// schema dumper (core/wire.h), against the checked-in wire_schema.golden
// next to this file.  The golden's field order IS the wire format, and its
// diff is what review reads.  On a mismatch the test writes the rendered
// schema beside its binary and prints the command that copies it over the
// golden.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/proto.h"

namespace propeller::core {
namespace {

template <class T>
void Render(std::map<std::string, std::string>& out, const std::string& name) {
  DumpWireSchema<T>(name, out[name]);
}

// Every message, in name order.
std::string RenderSchema() {
  std::map<std::string, std::string> messages;
  Render<CatchUpRequest>(messages, "CatchUpRequest");
  Render<CatchUpResponse>(messages, "CatchUpResponse");
  Render<CreateGroupRequest>(messages, "CreateGroupRequest");
  Render<CreateIndexRequest>(messages, "CreateIndexRequest");
  Render<DropGroupRequest>(messages, "DropGroupRequest");
  Render<FlushAcgRequest>(messages, "FlushAcgRequest");
  Render<HeartbeatRequest>(messages, "HeartbeatRequest");
  Render<InstallGroupRequest>(messages, "InstallGroupRequest");
  Render<MetadataImage>(messages, "MetadataImage");
  Render<MigrateOutRequest>(messages, "MigrateOutRequest");
  Render<MigrateOutResponse>(messages, "MigrateOutResponse");
  Render<ResetNodeRequest>(messages, "ResetNodeRequest");
  Render<ResolveSearchRequest>(messages, "ResolveSearchRequest");
  Render<ResolveSearchResponse>(messages, "ResolveSearchResponse");
  Render<ResolveUpdateRequest>(messages, "ResolveUpdateRequest");
  Render<ResolveUpdateResponse>(messages, "ResolveUpdateResponse");
  Render<SearchRequest>(messages, "SearchRequest");
  Render<SearchResponse>(messages, "SearchResponse");
  Render<StageUpdatesRequest>(messages, "StageUpdatesRequest");
  Render<StageUpdatesResponse>(messages, "StageUpdatesResponse");
  Render<TickRequest>(messages, "TickRequest");
  std::string schema =
      "# propeller wire schema snapshot: the Fields() list of every message in\n"
      "# src/core/proto.h, rendered by wire_schema_test.  Field order IS the wire\n"
      "# format.  On a layout change the test writes the new rendering beside its\n"
      "# binary and prints the command that copies it here; the golden diff is\n"
      "# what review reads.\n";
  for (const auto& [name, body] : messages) schema += body;
  return schema;
}

TEST(WireSchema, FieldListsMatchTheGolden) {
  std::ifstream in(PROPELLER_WIRE_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << PROPELLER_WIRE_GOLDEN;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string rendered = RenderSchema();
  if (golden.str() == rendered) return;
  std::ofstream(PROPELLER_WIRE_RENDERED, std::ios::binary | std::ios::trunc)
      << rendered;
  ADD_FAILURE() << "the wire layout differs from " << PROPELLER_WIRE_GOLDEN
                << "; if the change is deliberate, accept it with\n  cp "
                << PROPELLER_WIRE_RENDERED << " " << PROPELLER_WIRE_GOLDEN;
  EXPECT_EQ(golden.str(), rendered);
}

}  // namespace
}  // namespace propeller::core
