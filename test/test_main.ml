let () =
  Alcotest.run "oflex"
    (Test_dp.suites @ Test_sql.suites @ Test_engine.suites @ Test_elastic.suites
   @ Test_soundness.suites @ Test_flex.suites @ Test_histogram.suites
   @ Test_props.suites @ Test_ptr.suites @ Test_mwem.suites @ Test_acceptance.suites @ Test_fuzz.suites @ Test_baselines.suites
   @ Test_workload.suites @ Test_service.suites @ Test_reactor.suites
   @ Test_factor.suites
   @ Test_release_store.suites
   @ Test_parallel.suites @ Test_metrics_refresh.suites @ Test_optimizer.suites
   @ Test_obs.suites)
