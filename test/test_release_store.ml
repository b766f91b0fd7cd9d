module Json = Flex_service.Json
module Wire = Flex_service.Wire
module Audit = Flex_service.Audit
module Server = Flex_service.Server
module Release_store = Flex_service.Release_store
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng
module Metrics = Flex_engine.Metrics
module Value = Flex_engine.Value
module W = Flex_workload

let temp_file suffix = Filename.temp_file "flex-release" suffix

(* entry factory: every parameter that feeds the composite key is overridable
   so the key-sensitivity and eviction tests can vary exactly one at a time *)
let entry ?(fingerprint = "fp0") ?(analyst = "a") ?(epsilon = 0.1) ?(delta = 1e-9)
    ?(flags = "f") ?(rows = [ [| Value.Float 101.0 |] ]) sql =
  let key = Release_store.key ~sql_canonical:sql ~fingerprint ~flags ~epsilon ~delta in
  {
    Release_store.key;
    fingerprint;
    analyst;
    epsilon;
    delta;
    epsilon_spent = epsilon;
    delta_spent = delta;
    columns = [ "count" ];
    rows;
    bins_enumerated = false;
    noise_scales = [ ("count", 1.0 /. epsilon) ];
  }

let find_rows store e =
  match Release_store.find store e.Release_store.key with
  | Some stored -> Some stored.Release_store.rows
  | None -> None

(* --- store unit tests ---------------------------------------------------------- *)

let store_tests =
  [
    Alcotest.test_case "key separates every component of the mechanism tuple" `Quick
      (fun () ->
        let base = (entry "q").Release_store.key in
        let variants =
          [
            ("sql", (entry "q2").Release_store.key);
            ("fingerprint", (entry ~fingerprint:"fp1" "q").Release_store.key);
            ("flags", (entry ~flags:"g" "q").Release_store.key);
            ("epsilon", (entry ~epsilon:0.2 "q").Release_store.key);
            ("delta", (entry ~delta:1e-8 "q").Release_store.key);
            (* one ulp of budget is a different mechanism instance: %.17g
               rendering must keep these apart *)
            ("epsilon ulp", (entry ~epsilon:(0.1 +. epsilon_float) "q").Release_store.key);
          ]
        in
        List.iter
          (fun (what, k) ->
            Alcotest.(check bool) (what ^ " changes the key") true (k <> base))
          variants;
        Alcotest.(check string) "same tuple, same key" base (entry "q").Release_store.key);
    Alcotest.test_case "record then find replays the stored entry" `Quick (fun () ->
        let store = Release_store.create () in
        let e = entry "q" in
        Alcotest.(check bool) "cold miss" true (Release_store.find store e.key = None);
        ignore (Release_store.record store e);
        (match Release_store.find store e.key with
        | Some stored ->
          Alcotest.(check bool) "same rows" true (stored.rows = e.rows);
          Alcotest.(check (float 0.0)) "spend preserved" 0.1 stored.epsilon_spent
        | None -> Alcotest.fail "recorded entry not found");
        let s = Release_store.stats store in
        Alcotest.(check int) "hits" 1 s.hits;
        Alcotest.(check int) "misses" 1 s.misses;
        Alcotest.(check int) "entries" 1 s.entries);
    Alcotest.test_case "first release wins a race on the same key" `Quick (fun () ->
        let store = Release_store.create () in
        let first = entry ~rows:[ [| Value.Float 1.0 |] ] "q" in
        let loser = entry ~rows:[ [| Value.Float 2.0 |] ] "q" in
        ignore (Release_store.record store first);
        let served = Release_store.record store loser in
        (* the racing loser's noise is discarded unreleased: every answer
           that leaves the server for this key is the same bytes *)
        Alcotest.(check bool) "stored entry served" true (served.rows = first.rows);
        Alcotest.(check bool) "lookup agrees" true
          (find_rows store first = Some first.rows);
        Alcotest.(check int) "no duplicate entry" 1 (Release_store.length store));
    Alcotest.test_case "capacity eviction spares the light analyst" `Quick (fun () ->
        let store = Release_store.create ~capacity:4 () in
        let hog i = entry ~analyst:"hog" (Printf.sprintf "h%d" i) in
        let hogs = List.init 5 hog in
        List.iteri
          (fun i e -> if i < 4 then ignore (Release_store.record store e))
          hogs;
        let small = entry ~analyst:"small" "s0" in
        ignore (Release_store.record store small);
        (* the store was full of hog's entries: the heaviest holder pays,
           oldest first *)
        Alcotest.(check bool) "hog's oldest evicted" true
          (find_rows store (List.nth hogs 0) = None);
        Alcotest.(check bool) "small admitted" true (find_rows store small <> None);
        ignore (Release_store.record store (List.nth hogs 4));
        (* hog is over its proportional share (capacity 4 / 2 owners = 2), so
           its own churn pays again — small's working set survives *)
        Alcotest.(check bool) "hog churns its own entries" true
          (find_rows store (List.nth hogs 1) = None);
        Alcotest.(check bool) "small survives the churn" true
          (find_rows store small <> None);
        let s = Release_store.stats store in
        Alcotest.(check int) "evictions counted" 2 s.evictions;
        Alcotest.(check int) "at capacity" 4 s.entries);
    Alcotest.test_case "journal round-trips exotic floats bit-identically" `Quick
      (fun () ->
        let path = temp_file ".releases" in
        let store = Release_store.open_ ~fingerprint:"fp0" path in
        let awkward =
          [
            [|
              Value.Float (0.1 +. 0.2);
              Value.Float max_float;
              Value.Float 5e-324;
              Value.Int max_int;
            |];
          ]
        in
        let e1 = entry ~epsilon:0.30000000000000004 ~rows:awkward "q1" in
        let e2 =
          entry ~rows:[ [| Value.Float (-0.0); Value.String "café"; Value.Null |] ] "q2"
        in
        ignore (Release_store.record store e1);
        ignore (Release_store.record store e2);
        Release_store.close store;
        let store2 = Release_store.open_ ~fingerprint:"fp0" path in
        Alcotest.(check bool) "awkward floats intact" true
          (find_rows store2 e1 = Some awkward);
        Alcotest.(check bool) "negative zero and UTF-8 intact" true
          (find_rows store2 e2 = Some e2.rows);
        (match Release_store.find store2 e1.key with
        | Some stored ->
          Alcotest.(check bool) "spend bit-identical" true
            (stored.epsilon_spent = 0.30000000000000004)
        | None -> Alcotest.fail "entry lost across restart");
        Alcotest.(check int) "nothing stranded" 0 (Release_store.stats store2).stale_dropped;
        Release_store.close store2;
        Sys.remove path);
    Alcotest.test_case "epoch invalidation strands stale entries, not the journal" `Quick
      (fun () ->
        let path = temp_file ".releases" in
        let store = Release_store.open_ ~fingerprint:"old" path in
        List.iter
          (fun i ->
            ignore (Release_store.record store (entry ~fingerprint:"old" (string_of_int i))))
          [ 1; 2; 3 ];
        let stranded = Release_store.invalidate_epoch store ~keep:"new" in
        Alcotest.(check int) "all three stranded" 3 stranded;
        Alcotest.(check int) "store emptied" 0 (Release_store.length store);
        Release_store.close store;
        (* the journal is an audit record: reopening under the old epoch
           still replays it, under the new epoch it is stale *)
        let back = Release_store.open_ ~fingerprint:"old" path in
        Alcotest.(check int) "old epoch replays" 3 (Release_store.length back);
        Release_store.close back;
        let fresh = Release_store.open_ ~fingerprint:"new" path in
        Alcotest.(check int) "new epoch starts empty" 0 (Release_store.length fresh);
        Alcotest.(check int) "stale counted" 3 (Release_store.stats fresh).stale_dropped;
        Release_store.close fresh;
        Sys.remove path);
    Alcotest.test_case "journal replay reproduces live eviction state" `Quick (fun () ->
        let path = temp_file ".releases" in
        let store = Release_store.open_ ~capacity:2 ~fingerprint:"fp0" path in
        let es = List.init 4 (fun i -> entry (Printf.sprintf "q%d" i)) in
        List.iter (fun e -> ignore (Release_store.record store e)) es;
        let live =
          List.map (fun e -> find_rows store e <> None) es
        in
        Release_store.close store;
        let store2 = Release_store.open_ ~capacity:2 ~fingerprint:"fp0" path in
        let replayed =
          List.map (fun e -> find_rows store2 e <> None) es
        in
        (* admission replays under the same policy as live inserts, so a
           restarted server serves exactly what the live one would have *)
        Alcotest.(check (list bool)) "same working set" live replayed;
        Alcotest.(check int) "bounded after replay" 2 (Release_store.length store2);
        Release_store.close store2;
        Sys.remove path);
    Alcotest.test_case "open compacts the journal to the live working set" `Quick
      (fun () ->
        let lines path =
          let ic = open_in path in
          let rec go acc =
            match input_line ic with
            | l -> go (if String.trim l = "" then acc else l :: acc)
            | exception End_of_file ->
              close_in ic;
              List.rev acc
          in
          go []
        in
        let path = temp_file ".releases" in
        let store = Release_store.open_ ~capacity:2 ~fingerprint:"fp0" path in
        let es = List.init 5 (fun i -> entry (Printf.sprintf "q%d" i)) in
        List.iter (fun e -> ignore (Release_store.record store e)) es;
        Release_store.close store;
        Alcotest.(check int) "append-only journal keeps every record" 5
          (List.length (lines path));
        (* crash mid-append on top of the dead weight *)
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "{\"key\": \"half-writ";
        close_out oc;
        let store2 = Release_store.open_ ~capacity:2 ~fingerprint:"fp0" path in
        let live = List.filter (fun e -> find_rows store2 e <> None) es in
        Release_store.close store2;
        (* the rewrite keeps exactly the survivors, drops evictions and the
           torn tail, and every remaining line parses whole *)
        Alcotest.(check int) "journal compacted to the working set" 2
          (List.length (lines path));
        Alcotest.(check int) "two survivors" 2 (List.length live);
        List.iter
          (fun l ->
            match Json.of_string l with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "compacted line does not parse: %s" e)
          (lines path);
        (* a compacted journal is a fixpoint: reopening neither rewrites nor
           loses anything, and new records still append *)
        let store3 = Release_store.open_ ~capacity:2 ~fingerprint:"fp0" path in
        Alcotest.(check int) "working set intact after compaction" 2
          (Release_store.length store3);
        List.iter
          (fun e ->
            Alcotest.(check bool) "survivor still served" true
              (find_rows store3 e <> None))
          live;
        ignore (Release_store.record store3 (entry "fresh"));
        Release_store.close store3;
        Alcotest.(check int) "append after compaction" 3 (List.length (lines path));
        Sys.remove path);
    Alcotest.test_case "stale-epoch journals compact to empty" `Quick (fun () ->
        let path = temp_file ".releases" in
        let store = Release_store.open_ ~fingerprint:"old" path in
        List.iter
          (fun i -> ignore (Release_store.record store (entry ~fingerprint:"old" i)))
          [ "a"; "b"; "c" ];
        Release_store.close store;
        let fresh = Release_store.open_ ~fingerprint:"new" path in
        Alcotest.(check int) "stale counted on replay" 3
          (Release_store.stats fresh).stale_dropped;
        Release_store.close fresh;
        Alcotest.(check int) "dead epoch swept from disk" 0
          (Unix.stat path).Unix.st_size;
        Sys.remove path);
  ]

(* --- server-level replay ------------------------------------------------------- *)

let fixture =
  lazy (W.Uber.generate ~sizes:W.Uber.small_sizes (Rng.create ~seed:7 ()))

let make_server ?audit ?config ?ledger ?release_store ?(seed = 11) () =
  let db, metrics = Lazy.force fixture in
  let ledger = match ledger with Some l -> l | None -> Ledger.in_memory () in
  let server =
    Server.create ?audit ?config ?release_store ~db ~metrics ~ledger
      ~rng:(Rng.create ~seed ()) ()
  in
  (server, ledger)

let hello server session analyst =
  match Server.handle server session (Wire.Hello { analyst; epsilon = None; delta = None }) with
  | Wire.Budget_report _ -> ()
  | other -> Alcotest.failf "hello failed: %s" (Wire.response_to_line other)

let query ?epsilon ?delta server session sql =
  Server.handle server session (Wire.Query { sql; epsilon; delta; id = None })

(* Wire.Result carries an inline record, so project the fields under test *)
type answer = {
  rows : Json.t list list;
  epsilon_spent : float;
  delta_spent : float;
  cached : bool;
  derived : bool;
  cache_hit : bool;
  noise_scales : (string * float) list;
}

let result ?epsilon server session sql =
  match query ?epsilon server session sql with
  | Wire.Result r ->
    {
      rows = r.rows;
      epsilon_spent = r.epsilon_spent;
      delta_spent = r.delta_spent;
      cached = r.cached;
      derived = r.derived;
      cache_hit = r.cache_hit;
      noise_scales = r.noise_scales;
    }
  | other -> Alcotest.failf "expected result, got %s" (Wire.response_to_line other)

let histogram_sql = "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status"

let server_tests =
  [
    Alcotest.test_case "replay is byte-identical and charges zero budget" `Quick
      (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        hello server session "alice";
        let first = result ~epsilon:0.5 server session histogram_sql in
        Alcotest.(check bool) "first is charged" false first.cached;
        let after_first = Ledger.spent ledger ~analyst:"alice" in
        let again = result ~epsilon:0.5 server session histogram_sql in
        Alcotest.(check bool) "replayed" true again.cached;
        Alcotest.(check bool) "analysis cache agrees" true again.cache_hit;
        Alcotest.(check (float 0.0)) "zero epsilon" 0.0 again.epsilon_spent;
        Alcotest.(check (float 0.0)) "zero delta" 0.0 again.delta_spent;
        Alcotest.(check bool) "same noisy rows" true (again.rows = first.rows);
        Alcotest.(check bool) "same noise scales" true
          (again.noise_scales = first.noise_scales);
        Alcotest.(check bool) "ledger untouched" true
          (Ledger.spent ledger ~analyst:"alice" = after_first);
        let c = Server.counters server in
        Alcotest.(check int) "one grant" 1 c.granted;
        Alcotest.(check int) "one replay" 1 c.replayed);
    Alcotest.test_case "conservation across analysts and repeated replays" `Quick
      (fun () ->
        (* a finished release is public: once any analyst has paid for it,
           replaying it to anyone costs the fleet nothing more *)
        let server, ledger = make_server () in
        let analysts = [ "a1"; "a2"; "a3" ] in
        let rows = ref [] in
        List.iter
          (fun analyst ->
            let session = Server.session server in
            hello server session analyst;
            for _ = 1 to 5 do
              let r = result ~epsilon:0.5 server session histogram_sql in
              rows := r.rows :: !rows
            done)
          analysts;
        (match !rows with
        | [] -> Alcotest.fail "no answers"
        | reference :: rest ->
          Alcotest.(check bool) "all fifteen answers identical" true
            (List.for_all (fun r -> r = reference) rest));
        let spent analyst =
          match Ledger.spent ledger ~analyst with
          | Some (e, _) -> e
          | None -> Alcotest.failf "no ledger row for %s" analyst
        in
        Alcotest.(check (float 0.0)) "exactly one charge fleet-wide" 0.5
          (List.fold_left (fun acc a -> acc +. spent a) 0.0 analysts);
        let c = Server.counters server in
        Alcotest.(check int) "one grant" 1 c.granted;
        Alcotest.(check int) "fourteen replays" 14 c.replayed);
    Alcotest.test_case "a different budget is a different release" `Quick (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        hello server session "alice";
        let at_half = result ~epsilon:0.5 server session histogram_sql in
        let at_quarter = result ~epsilon:0.25 server session histogram_sql in
        Alcotest.(check bool) "new budget pays again" false at_quarter.cached;
        Alcotest.(check (float 0.0)) "charged" 0.25 at_quarter.epsilon_spent;
        Alcotest.(check bool) "independently noised" true
          (at_quarter.rows <> at_half.rows);
        let repeat = result ~epsilon:0.25 server session histogram_sql in
        Alcotest.(check bool) "then replays at its own key" true repeat.cached;
        Alcotest.(check bool) "both charges on the ledger" true
          (match Ledger.spent ledger ~analyst:"alice" with
          | Some (e, _) -> e = 0.75
          | None -> false));
    Alcotest.test_case "restart replays from the journals with zero extra spend" `Quick
      (fun () ->
        let ledger_path = temp_file ".ledger" in
        let releases_path = temp_file ".releases" in
        let _, metrics = Lazy.force fixture in
        let fingerprint = Metrics.fingerprint metrics in
        let run ~seed =
          let ledger = Ledger.open_ ledger_path in
          let store = Release_store.open_ ~fingerprint releases_path in
          let server, _ = make_server ~ledger ~release_store:store ~seed () in
          let session = Server.session server in
          hello server session "alice";
          let r = result ~epsilon:0.5 server session histogram_sql in
          let spent = Ledger.spent ledger ~analyst:"alice" in
          Release_store.close store;
          Ledger.close ledger;
          (r, spent)
        in
        let first, spent1 = run ~seed:11 in
        Alcotest.(check bool) "first run charged" false first.cached;
        (* crash mid-append before the restart: the torn line vanishes *)
        let oc = open_out_gen [ Open_append ] 0o644 releases_path in
        output_string oc "{\"key\": \"half";
        close_out oc;
        (* the second generation has a different RNG seed: identical answers
           can only come from the store, not from re-execution *)
        let second, spent2 = run ~seed:977 in
        Alcotest.(check bool) "served from the journal" true second.cached;
        Alcotest.(check (float 0.0)) "no new charge" 0.0 second.epsilon_spent;
        Alcotest.(check bool) "noisy rows identical across restart" true
          (second.rows = first.rows);
        Alcotest.(check bool) "ledger spend identical across restart" true
          (spent1 = spent2);
        Sys.remove ledger_path;
        Sys.remove releases_path);
    Alcotest.test_case "refresh_data strands releases of the old epoch" `Quick (fun () ->
        let server, ledger = make_server () in
        let session = Server.session server in
        hello server session "alice";
        let before = result ~epsilon:0.5 server session histogram_sql in
        (* a fresh generation of the data: new rows, new metrics, new epoch *)
        let db2, metrics2 = W.Uber.generate ~sizes:W.Uber.small_sizes (Rng.create ~seed:8 ()) in
        let _, old_metrics = Lazy.force fixture in
        Alcotest.(check bool) "fixture epochs differ" true
          (Metrics.fingerprint metrics2 <> Metrics.fingerprint old_metrics);
        let stranded = Server.refresh_data server ~db:db2 ~metrics:metrics2 in
        Alcotest.(check int) "the release was stranded" 1 stranded;
        let after = result ~epsilon:0.5 server session histogram_sql in
        Alcotest.(check bool) "old answer must not outlive its data" false after.cached;
        Alcotest.(check (float 0.0)) "recharged" 0.5 after.epsilon_spent;
        Alcotest.(check bool) "fresh release, not the stale bytes" true
          (after.rows <> before.rows);
        Alcotest.(check bool) "both charges stand" true
          (match Ledger.spent ledger ~analyst:"alice" with
          | Some (e, _) -> e = 1.0
          | None -> false));
    Alcotest.test_case "audit log distinguishes replays from grants" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server, _ = make_server ~audit:(Audit.to_buffer buf) () in
        let session = Server.session server in
        hello server session "alice";
        ignore (result ~epsilon:0.5 server session histogram_sql);
        ignore (result ~epsilon:0.5 server session histogram_sql);
        let outcomes =
          Buffer.contents buf |> String.split_on_char '\n'
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map (fun line ->
                 match Json.of_string line with
                 | Ok j -> (
                   match Option.bind (Json.mem "outcome" j) Json.to_str with
                   | Some o -> o
                   | None -> Alcotest.failf "no outcome in %s" line)
                 | Error e -> Alcotest.failf "audit line does not parse: %s" e)
        in
        Alcotest.(check (list string)) "grant then replay" [ "granted"; "replayed" ]
          outcomes);
    Alcotest.test_case "suffix variants derive from the stored core at zero budget"
      `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server, ledger = make_server ~audit:(Audit.to_buffer buf) () in
        let session = Server.session server in
        hello server session "alice";
        let core = result ~epsilon:0.5 server session histogram_sql in
        Alcotest.(check bool) "core is charged" false core.cached;
        Alcotest.(check bool) "core is not a derivation" false core.derived;
        let again = result ~epsilon:0.5 server session histogram_sql in
        Alcotest.(check bool) "exact repeat replays" true
          (again.cached && not again.derived);
        (* an always-true HAVING is still a different query: it must hit the
           same stored core and come back bit-identical, charged nothing *)
        let filtered =
          result ~epsilon:0.5 server session
            (histogram_sql ^ " HAVING COUNT(*) > -1000000")
        in
        Alcotest.(check bool) "derived from the store" true
          (filtered.cached && filtered.derived);
        Alcotest.(check (float 0.0)) "zero epsilon" 0.0 filtered.epsilon_spent;
        Alcotest.(check (float 0.0)) "zero delta" 0.0 filtered.delta_spent;
        Alcotest.(check bool) "same noisy bytes" true (filtered.rows = core.rows);
        (* scaled + reordered + truncated: recompute the expected answer from
           the released histogram independently of the server's evaluator *)
        let scaled =
          result ~epsilon:0.5 server session
            "SELECT t.status, COUNT(*) * 2 FROM trips t GROUP BY t.status \
             ORDER BY 2 DESC LIMIT 2"
        in
        Alcotest.(check bool) "scaled variant derived" true
          (scaled.cached && scaled.derived);
        let parsed =
          List.map
            (function
              | [ s; Json.Num c ] -> (s, c)
              | row ->
                Alcotest.failf "unexpected histogram row: %s"
                  (Json.to_string (Json.List row)))
            core.rows
        in
        let expected =
          List.stable_sort (fun (_, c1) (_, c2) -> Float.compare c2 c1) parsed
          |> List.filteri (fun i _ -> i < 2)
          |> List.map (fun (s, c) -> [ s; Json.Num (c *. 2.) ])
        in
        Alcotest.(check bool) "post-processing of the stored release" true
          (scaled.rows = expected);
        (* accounting: one grant, one replay, two derivations — and only the
           core's charge on the ledger *)
        Alcotest.(check bool) "single charge" true
          (match Ledger.spent ledger ~analyst:"alice" with
          | Some (e, _) -> e = 0.5
          | None -> false);
        let c = Server.counters server in
        Alcotest.(check int) "one grant" 1 c.granted;
        Alcotest.(check int) "one replay" 1 c.replayed;
        Alcotest.(check int) "two derivations" 2 c.derived;
        let outcomes =
          Buffer.contents buf |> String.split_on_char '\n'
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map (fun line ->
                 match
                   Option.bind
                     (Result.to_option (Json.of_string line))
                     (fun j -> Option.bind (Json.mem "outcome" j) Json.to_str)
                 with
                 | Some o -> o
                 | None -> Alcotest.failf "unreadable audit line: %s" line)
        in
        Alcotest.(check (list string)) "audit distinguishes derivations"
          [ "granted"; "replayed"; "derived"; "derived" ]
          outcomes;
        match Server.handle server session Wire.Stats with
        | Wire.Stats_report s ->
          Alcotest.(check int) "stats expose derivations" 2 s.release_derived
        | other -> Alcotest.failf "expected stats, got %s" (Wire.response_to_line other));
    Alcotest.test_case "derivation conservation across analysts and restarts"
      `Quick (fun () ->
        (* the acceptance shape: M suffix variants of one core, N concurrent
           analysts, two server generations over the same journals. The fleet
           pays for the core exactly once; every derived answer is the same
           bytes within a generation and across the restart *)
        let ledger_path = temp_file ".ledger" in
        let releases_path = temp_file ".releases" in
        let _, metrics = Lazy.force fixture in
        let fingerprint = Metrics.fingerprint metrics in
        let variants =
          [
            histogram_sql;
            histogram_sql ^ " HAVING COUNT(*) > -1000000";
            "SELECT t.status, COUNT(*) * 2 FROM trips t GROUP BY t.status \
             ORDER BY 2 DESC LIMIT 2";
            "SELECT COUNT(*), u.status FROM trips u GROUP BY u.status \
             ORDER BY u.status";
          ]
        in
        let analysts = [ "a1"; "a2"; "a3" ] in
        let run ~seed =
          let ledger = Ledger.open_ ledger_path in
          let store = Release_store.open_ ~fingerprint releases_path in
          let server, _ = make_server ~ledger ~release_store:store ~seed () in
          let payer = Server.session server in
          hello server payer "payer";
          let warm = result ~epsilon:0.5 server payer histogram_sql in
          let per_analyst = Array.make (List.length analysts) [] in
          let worker i analyst =
            let session = Server.session server in
            hello server session analyst;
            per_analyst.(i) <-
              List.map (fun sql -> result ~epsilon:0.5 server session sql) variants
          in
          let threads = List.mapi (fun i a -> Thread.create (worker i) a) analysts in
          List.iter Thread.join threads;
          let spent =
            List.map (fun a -> Ledger.spent ledger ~analyst:a) ("payer" :: analysts)
          in
          Release_store.close store;
          Ledger.close ledger;
          (warm, Array.to_list per_analyst, spent)
        in
        let warm1, answers1, spent1 = run ~seed:11 in
        Alcotest.(check bool) "generation one pays for the core" false warm1.cached;
        let reference = List.hd answers1 in
        List.iter
          (fun (per_variant : answer list) ->
            List.iteri
              (fun v (a : answer) ->
                let r = List.nth reference v in
                Alcotest.(check bool) "zero-budget store hit" true
                  (a.cached && a.epsilon_spent = 0.0 && a.delta_spent = 0.0);
                Alcotest.(check bool) "derived iff the suffix is real" (v > 0)
                  a.derived;
                Alcotest.(check bool) "identical bytes across analysts" true
                  (a.rows = r.rows))
              per_variant)
          answers1;
        (* the trivial variant is the stored histogram itself: the ordered
           variant must be its exact ascending-by-status rearrangement *)
        let trivial = List.nth reference 0 in
        let reordered = List.nth reference 3 in
        let expected =
          List.map
            (function
              | [ Json.Str s; c ] -> (s, c)
              | row ->
                Alcotest.failf "unexpected histogram row: %s"
                  (Json.to_string (Json.List row)))
            trivial.rows
          |> List.stable_sort (fun (s1, _) (s2, _) -> String.compare s1 s2)
          |> List.map (fun (s, c) -> [ c; Json.Str s ])
        in
        Alcotest.(check bool) "derivation = post-processing the stored release"
          true
          (reordered.rows = expected);
        let fleet_epsilon spent =
          List.fold_left
            (fun acc -> function Some (e, _) -> acc +. e | None -> acc)
            0.0 spent
        in
        Alcotest.(check (float 0.0)) "one charge fleet-wide" 0.5
          (fleet_epsilon spent1);
        (* generation two: different RNG seed, same journals — identical
           answers can only come from the store, and nothing is recharged *)
        let warm2, answers2, spent2 = run ~seed:977 in
        Alcotest.(check bool) "restart replays the core" true warm2.cached;
        Alcotest.(check bool) "restart core bytes identical" true
          (warm2.rows = warm1.rows);
        List.iter2
          (fun (g1 : answer list) (g2 : answer list) ->
            List.iter2
              (fun (a1 : answer) (a2 : answer) ->
                Alcotest.(check bool) "derived bytes identical across restart"
                  true (a1.rows = a2.rows))
              g1 g2)
          answers1 answers2;
        Alcotest.(check (float 0.0)) "restart spends nothing new" 0.5
          (fleet_epsilon spent2);
        Sys.remove ledger_path;
        Sys.remove releases_path);
    Alcotest.test_case "stats surface the release counters" `Quick (fun () ->
        let server, _ = make_server () in
        let session = Server.session server in
        hello server session "alice";
        ignore (result ~epsilon:0.5 server session histogram_sql);
        ignore (result ~epsilon:0.5 server session histogram_sql);
        match Server.handle server session Wire.Stats with
        | Wire.Stats_report s ->
          Alcotest.(check int) "release hits" 1 s.release_hits;
          Alcotest.(check int) "release misses" 1 s.release_misses;
          Alcotest.(check int) "release entries" 1 s.release_entries;
          Alcotest.(check (float 1e-9)) "hit rate" 0.5 s.release_hit_rate
        | other -> Alcotest.failf "expected stats, got %s" (Wire.response_to_line other));
    Alcotest.test_case "wire decode defaults keep old servers readable" `Quick (fun () ->
        (* a pre-release-store stats line: every release_* field absent *)
        let stats_line =
          {|{"status":"stats","queries":3,"granted":2,"rejected":1,"refused":0,"cache_hits":1,"cache_misses":2,"cache_entries":2,"analysts":1}|}
        in
        (match Wire.response_of_line stats_line with
        | Ok (Wire.Stats_report s) ->
          Alcotest.(check int) "hits default" 0 s.release_hits;
          Alcotest.(check int) "misses default" 0 s.release_misses;
          Alcotest.(check int) "evictions default" 0 s.release_evictions;
          Alcotest.(check int) "entries default" 0 s.release_entries;
          Alcotest.(check (float 0.0)) "hit rate default" 0.0 s.release_hit_rate
        | Ok other -> Alcotest.failf "wrong constructor: %s" (Wire.response_to_line other)
        | Error e -> Alcotest.failf "stats decode failed: %s" e);
        (* a pre-release-store result line: no "cached" field *)
        let result_line =
          {|{"status":"result","columns":["count"],"rows":[[41.5]],"epsilon_spent":0.5,"delta_spent":0,"remaining_epsilon":9.5,"remaining_delta":1e-06,"cache_hit":false,"bins_enumerated":false,"noise_scales":[{"column":"count","scale":2}]}|}
        in
        match Wire.response_of_line result_line with
        | Ok (Wire.Result r) ->
          Alcotest.(check bool) "old servers never replay" false r.cached
        | Ok other -> Alcotest.failf "wrong constructor: %s" (Wire.response_to_line other)
        | Error e -> Alcotest.failf "result decode failed: %s" e);
  ]

(* --- audit rotation ------------------------------------------------------------ *)

let audit_event i =
  {
    Audit.analyst = "alice";
    sql = Printf.sprintf "SELECT COUNT(*) FROM trips WHERE fare > %d" i;
    request_id = None;
    outcome = Audit.Granted;
    epsilon = 0.1;
    delta = 1e-9;
    max_noise_scale = 10.0;
    cache_hit = false;
    parse_ns = 1.0;
    analysis_ns = 2.0;
    smooth_ns = 3.0;
    execution_ns = 4.0;
    perturbation_ns = 5.0;
    total_ns = 15.0;
  }

let parse_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> (
        match Json.of_string line with
        | Ok j -> go (j :: acc)
        | Error e -> Alcotest.failf "torn line in %s: %s in %S" path e line)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  end

let rotation_tests =
  [
    Alcotest.test_case "size rotation never tears a JSON line" `Quick (fun () ->
        let path = temp_file ".audit" in
        let old = path ^ ".1" in
        let audit = Audit.to_file ~max_bytes:700 path in
        for i = 1 to 25 do
          Audit.log audit (audit_event i)
        done;
        Audit.close audit;
        (* every surviving line in both generations must parse whole *)
        let current = parse_lines path in
        let rotated = parse_lines old in
        Alcotest.(check bool) "rotation happened" true (Sys.file_exists old);
        Alcotest.(check bool) "current generation non-empty" true (current <> []);
        Alcotest.(check bool) "rotated generation non-empty" true (rotated <> []);
        (* the newest events are in the newest file, in order *)
        let sql_of j =
          match Option.bind (Json.mem "sql" j) Json.to_str with
          | Some s -> s
          | None -> Alcotest.fail "audit line without sql"
        in
        let last = List.nth current (List.length current - 1) in
        Alcotest.(check string) "last event is the last line"
          (audit_event 25).Audit.sql (sql_of last);
        Alcotest.(check int) "all events counted" 25 (Audit.count audit);
        Sys.remove path;
        Sys.remove old);
    Alcotest.test_case "rotation resumes correctly after a restart" `Quick (fun () ->
        let path = temp_file ".audit" in
        let audit = Audit.to_file ~max_bytes:700 path in
        Audit.log audit (audit_event 1);
        Audit.close audit;
        (* a reopened sink re-seeds its byte count from the file, so the
           rotation threshold keeps counting from the real size *)
        let audit2 = Audit.to_file ~max_bytes:700 path in
        for i = 2 to 10 do
          Audit.log audit2 (audit_event i)
        done;
        Audit.close audit2;
        ignore (parse_lines path);
        ignore (parse_lines (path ^ ".1"));
        let size = (Unix.stat path).Unix.st_size in
        (* one whole line may straddle the limit, never more *)
        Alcotest.(check bool) "current file stays near the limit" true (size <= 1000);
        Sys.remove path;
        if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"));
  ]

let suites =
  [
    ("release_store", store_tests);
    ("release_replay", server_tests);
    ("audit_rotation", rotation_tests);
  ]
