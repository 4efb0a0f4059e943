let () =
  Alcotest.run "proust"
    [
      ("stm", Test_stm.suite);
      ("concurrent", Test_concurrent.suite);
      ("core", Test_core.suite);
      ("structures", Test_structures.suite);
      ("baselines", Test_baselines.suite);
      ("verify", Test_verify.suite);
      ("workload", Test_workload.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("model-equiv", Test_model_equiv.suite);
      ("opacity", Test_opacity.suite);
      ("matrix", Test_matrix.suite);
      ("stm-random", Test_stm_random.suite);
      ("edges", Test_edges.suite);
      ("chaos", Test_chaos.suite);
      ("lin", Test_lin.suite);
      ("obs", Test_obs.suite);
      ("qos", Test_qos.suite);
      ("durable", Test_durable.suite);
      ("sync", Test_sync.suite);
      ("mvcc", Test_mvcc.suite);
      ("arrivals", Test_arrivals.suite);
      ("opensystem", Test_opensystem.suite);
      ("registry", Test_registry.suite);
    ]
