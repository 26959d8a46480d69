// The fleet-scale acceptance bar, as a test (labelled `campaign512` — heavy,
// excluded from the sanitizer label sweeps): a 512-concurrent-flight
// adversarial campaign through the real ingest pipeline replays
// byte-identically from its seed across scheduler/shard configurations,
// with chain-forge and replay detected at precision/recall 1.0. Both
// cases pin the full ledger root, so any change to keys, verdicts, audit
// events or ledger framing shows up here.
#include <gtest/gtest.h>

#include "sim/campaign.h"

namespace alidrone::sim {
namespace {

TEST(Campaign512, ReplaysByteIdenticallyAtFleetScale) {
  CampaignConfig config;
  config.flights = 512;
  config.seed = 2026;
  config.scheduler_workers = 4;
  config.auditor_shards = 8;
  config.ingest_verify_threads = 2;
  const CampaignReport parallel = run_campaign(config);

  CampaignConfig serial_config = config;
  serial_config.scheduler_workers = 1;
  serial_config.auditor_shards = 1;
  serial_config.ingest_verify_threads = 0;
  const CampaignReport serial = run_campaign(serial_config);

  ASSERT_EQ(parallel.outcomes.size(), 512u);
  EXPECT_EQ(parallel.fingerprint(), serial.fingerprint());
  EXPECT_EQ(parallel.ledger_root_hex,
            "ce43b99af4eceeed0c0d27b4b9c15cc26e29a4070f59747f37208af406239cbc");

  // The hard-reject classes must be perfect at scale; in practice the
  // whole playbook is (each class flies 32 sorties here).
  for (const AttackClass c : {AttackClass::kChainForge, AttackClass::kReplay}) {
    const ClassMetrics& m = parallel.per_class[static_cast<std::size_t>(c)];
    EXPECT_GT(m.flights, 0u) << attack_class_name(c);
    EXPECT_EQ(m.precision, 1.0) << attack_class_name(c);
    EXPECT_EQ(m.recall, 1.0) << attack_class_name(c);
  }
  // No honest drone was falsely flagged.
  const ClassMetrics& honest =
      parallel.per_class[static_cast<std::size_t>(AttackClass::kHonest)];
  EXPECT_EQ(honest.flagged, 0u);
  EXPECT_EQ(honest.recall, 1.0);
}

// The 128-flight seed-1 campaign at 4 workers, 8 shards and 2 verify
// threads: the root the repo's history quotes as `697a4883…`.
TEST(Campaign512, Seed1With128FlightsKeepsItsRoot) {
  CampaignConfig config;
  config.flights = 128;
  config.seed = 1;
  config.scheduler_workers = 4;
  config.auditor_shards = 8;
  config.ingest_verify_threads = 2;
  const CampaignReport report = run_campaign(config);

  ASSERT_EQ(report.outcomes.size(), 128u);
  EXPECT_EQ(report.ledger_root_hex,
            "697a488394bf8fc988601d627c7851184411324094f7b76ae3892fc861b9da59");
}

}  // namespace
}  // namespace alidrone::sim
