let () =
  Alcotest.run "shmcs"
    [
      ("sim", Test_sim.suite);
      ("sim-extra", Test_sim_extra.suite);
      ("stats", Test_stats.suite);
      ("props", Test_props.suite);
      ("net", Test_net.suite);
      ("reliable", Test_reliable.suite);
      ("memsys", Test_memsys.suite);
      ("tmk", Test_tmk.suite);
      ("tmk-edge", Test_tmk_edge.suite);
      ("ivy", Test_ivy.suite);
      ("erc", Test_erc.suite);
      ("proto", Test_proto.suite);
      ("apps", Test_apps.suite);
      ("apps-extra", Test_apps_extra.suite);
      ("patterns", Test_patterns.suite);
      ("fuzz", Test_fuzz.suite);
      ("ranges", Test_ranges.suite);
      ("platform", Test_platform.suite);
      ("runner", Test_runner.suite);
      ("breakdown", Test_breakdown.suite);
      ("crash", Test_crash.suite);
      ("topology", Test_topology.suite);
      ("kv", Test_kv.suite);
      ("baseline", Test_baseline.suite);
    ]
