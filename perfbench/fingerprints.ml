(* Simulated-outcome fingerprints of the library scenarios at the seeds
   the benchmark ships, as printed by
   [bench.exe record --workload W --seeds 1-10]. Re-record only for a
   change that is meant to alter simulated behaviour. *)

let table : (string * int64 * (string * string) list) list =
  [
    ( "topoB-32-sessions-vbr", 1L,
      [
        ("engine.events", "5687259");
        ("engine.peak_live", "2325");
        ("engine.peak_pending", "2325");
        ("net.hops", "1620249");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.14060995462617187");
        ("paper.max_changes", "29");
      ] );
    ( "topoB-32-sessions-vbr", 2L,
      [
        ("engine.events", "5620252");
        ("engine.peak_live", "2230");
        ("engine.peak_pending", "2230");
        ("net.hops", "1567496");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.12389238984054689");
        ("paper.max_changes", "28");
      ] );
    ( "topoB-32-sessions-vbr", 3L,
      [
        ("engine.events", "5767352");
        ("engine.peak_live", "2328");
        ("engine.peak_pending", "2328");
        ("net.hops", "1631161");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.11137682922281249");
        ("paper.max_changes", "29");
      ] );
    ( "topoB-32-sessions-vbr", 4L,
      [
        ("engine.events", "5723953");
        ("engine.peak_live", "2294");
        ("engine.peak_pending", "2294");
        ("net.hops", "1612409");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.11078610742622395");
        ("paper.max_changes", "24");
      ] );
    ( "topoB-32-sessions-vbr", 5L,
      [
        ("engine.events", "5734327");
        ("engine.peak_live", "2309");
        ("engine.peak_pending", "2309");
        ("net.hops", "1618199");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.13385489957125002");
        ("paper.max_changes", "30");
      ] );
    ( "topoB-32-sessions-vbr", 6L,
      [
        ("engine.events", "5784677");
        ("engine.peak_live", "2433");
        ("engine.peak_pending", "2433");
        ("net.hops", "1646191");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.10671179121153648");
        ("paper.max_changes", "26");
      ] );
    ( "topoB-32-sessions-vbr", 7L,
      [
        ("engine.events", "5743452");
        ("engine.peak_live", "2331");
        ("engine.peak_pending", "2331");
        ("net.hops", "1615689");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.11082556265997398");
        ("paper.max_changes", "27");
      ] );
    ( "topoB-32-sessions-vbr", 8L,
      [
        ("engine.events", "5792260");
        ("engine.peak_live", "2486");
        ("engine.peak_pending", "2486");
        ("net.hops", "1653970");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.10767713168859377");
        ("paper.max_changes", "29");
      ] );
    ( "topoB-32-sessions-vbr", 9L,
      [
        ("engine.events", "5734234");
        ("engine.peak_live", "2370");
        ("engine.peak_pending", "2370");
        ("net.hops", "1630271");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.10673421194572917");
        ("paper.max_changes", "26");
      ] );
    ( "topoB-32-sessions-vbr", 10L,
      [
        ("engine.events", "5682778");
        ("engine.peak_live", "2237");
        ("engine.peak_pending", "2237");
        ("net.hops", "1610043");
        ("toposense.reports_received", "9568");
        ("toposense.suggestions_sent", "4800");
        ("toposense.skipped_no_snapshot", "0");
        ("paper.mean_deviation", "0.10474063653398437");
        ("paper.max_changes", "26");
      ] );
    ( "churn-storm", 1L,
      [
        ("engine.events", "15435");
        ("engine.peak_live", "6389");
        ("engine.peak_pending", "6389");
        ("net.routing_recomputes", "52493");
        ("multicast.repair_passes", "398");
        ("multicast.edges_repaired", "196");
        ("multicast.joins", "3102");
        ("churn.topology_events", "398");
        ("churn.leaves", "2886");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 2L,
      [
        ("engine.events", "15403");
        ("engine.peak_live", "6383");
        ("engine.peak_pending", "6383");
        ("net.routing_recomputes", "55100");
        ("multicast.repair_passes", "392");
        ("multicast.edges_repaired", "207");
        ("multicast.joins", "3099");
        ("churn.topology_events", "392");
        ("churn.leaves", "2883");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 3L,
      [
        ("engine.events", "15314");
        ("engine.peak_live", "6349");
        ("engine.peak_pending", "6349");
        ("net.routing_recomputes", "53776");
        ("multicast.repair_passes", "398");
        ("multicast.edges_repaired", "203");
        ("multicast.joins", "3082");
        ("churn.topology_events", "398");
        ("churn.leaves", "2866");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 4L,
      [
        ("engine.events", "15364");
        ("engine.peak_live", "6361");
        ("engine.peak_pending", "6361");
        ("net.routing_recomputes", "59486");
        ("multicast.repair_passes", "400");
        ("multicast.edges_repaired", "220");
        ("multicast.joins", "3088");
        ("churn.topology_events", "400");
        ("churn.leaves", "2872");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 5L,
      [
        ("engine.events", "15336");
        ("engine.peak_live", "6355");
        ("engine.peak_pending", "6355");
        ("net.routing_recomputes", "56707");
        ("multicast.repair_passes", "400");
        ("multicast.edges_repaired", "215");
        ("multicast.joins", "3085");
        ("churn.topology_events", "400");
        ("churn.leaves", "2869");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 6L,
      [
        ("engine.events", "15383");
        ("engine.peak_live", "6359");
        ("engine.peak_pending", "6359");
        ("net.routing_recomputes", "61203");
        ("multicast.repair_passes", "400");
        ("multicast.edges_repaired", "230");
        ("multicast.joins", "3087");
        ("churn.topology_events", "400");
        ("churn.leaves", "2871");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 7L,
      [
        ("engine.events", "15379");
        ("engine.peak_live", "6357");
        ("engine.peak_pending", "6357");
        ("net.routing_recomputes", "60277");
        ("multicast.repair_passes", "400");
        ("multicast.edges_repaired", "226");
        ("multicast.joins", "3086");
        ("churn.topology_events", "400");
        ("churn.leaves", "2870");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 8L,
      [
        ("engine.events", "15368");
        ("engine.peak_live", "6359");
        ("engine.peak_pending", "6359");
        ("net.routing_recomputes", "57160");
        ("multicast.repair_passes", "396");
        ("multicast.edges_repaired", "216");
        ("multicast.joins", "3087");
        ("churn.topology_events", "396");
        ("churn.leaves", "2871");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 9L,
      [
        ("engine.events", "15319");
        ("engine.peak_live", "6341");
        ("engine.peak_pending", "6341");
        ("net.routing_recomputes", "56168");
        ("multicast.repair_passes", "398");
        ("multicast.edges_repaired", "202");
        ("multicast.joins", "3078");
        ("churn.topology_events", "398");
        ("churn.leaves", "2862");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "churn-storm", 10L,
      [
        ("engine.events", "15442");
        ("engine.peak_live", "6389");
        ("engine.peak_pending", "6389");
        ("net.routing_recomputes", "58562");
        ("multicast.repair_passes", "398");
        ("multicast.edges_repaired", "222");
        ("multicast.joins", "3102");
        ("churn.topology_events", "398");
        ("churn.leaves", "2886");
        ("churn.tables_consistent", "true");
        ("churn.tree_consistent", "true");
      ] );
    ( "scale-100k", 1L,
      [
        ("engine.events", "2745850");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 2L,
      [
        ("engine.events", "2765870");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 3L,
      [
        ("engine.events", "2845982");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 4L,
      [
        ("engine.events", "2685786");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 5L,
      [
        ("engine.events", "2845962");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 6L,
      [
        ("engine.events", "2725830");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 7L,
      [
        ("engine.events", "2685786");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 8L,
      [
        ("engine.events", "2865982");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 9L,
      [
        ("engine.events", "2865982");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
    ( "scale-100k", 10L,
      [
        ("engine.events", "2865982");
        ("net.routing_columns", "33");
        ("toposense.reports_received", "96");
        ("toposense.suggestions_sent", "24");
        ("toposense.controller_state_entries", "24");
        ("toposense.summaries_received", "50");
        ("toposense.parent_state_entries", "50");
      ] );
  ]

let find ~workload ~seed =
  List.find_map
    (fun (w, s, fp) -> if w = workload && s = seed then Some fp else None)
    table
