let () =
  Alcotest.run "lbc"
    (List.concat [ Test_util.suites; Test_sim.suites; Test_storage.suites; Test_net.suites; Test_wal.suites; Test_rvm.suites; Test_locks.suites; Test_core.suites; Test_retention.suites; Test_rejoin.suites; Test_pheap.suites; Test_oo7.suites; Test_dsm.suites; Test_chaos.suites; Test_analysis.suites; Test_obs.suites; Test_explore.suites; Test_real.suites ])
