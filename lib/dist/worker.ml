(** The PE-side of the distributed executor.

    A worker is a {e fresh process} started with
    [Unix.create_process] — not a fork: OCaml 5 forbids forking once
    any domain has ever been created in the process, and the host
    binaries spawn domains for the shared-memory backend.  The
    coordinator re-executes its own binary with {!marker} as the first
    argument; host executables must call {!maybe_run} before their
    normal entry point.  One end of a socketpair becomes the child's
    stdin and carries {e both} directions (a socketpair is full
    duplex).  Stdout and stderr pass through untouched — anything the
    binary prints before {!maybe_run} runs (a test runner announcing a
    random seed, say) lands on the console instead of corrupting the
    wire.

    Over the socketpair transport that stdin descriptor {e is} the
    message channel.  Over the shm transport it is only the doorbell:
    messages flow through mmap'd ring segments whose paths arrive as
    argv tokens after {!marker} ([shm=PATH] for the coordinator link,
    [p2p=PE:SIDE:PATH] for each peer link) — paths cross
    [create_process] where descriptors cannot.

    The scheduling loops differ with the transport, mirroring the two
    topologies in the paper:

    - {e sock} (star): blocking receive from the coordinator; FISH
      goes to the coordinator after each result.
    - {e shm} (mesh): the coordinator pushes the whole round up front;
      tasks queue locally; an idle PE fishes {e peers} directly on the
      p2p links, and a victim's surplus tasks flow straight back —
      SCHEDULE replies never touch the coordinator.

    The PE owns a fully private OCaml heap with its own GC — the
    defining property of the Eden/GUM model this backend realises —
    and reports its GC counter deltas back in [Stats]. *)

let marker = "--dist-worker"
let default_argv () = [| Sys.executable_name; marker |]

let is_worker_invocation argv = Array.length argv >= 2 && argv.(1) = marker

(* One executed task: the result payload plus the phase
   timestamps/durations a trace span needs. *)
type executed = {
  out : Message.payload;
  unpack_ns : int;
  exec_start_ns : int;
  exec_end_ns : int;
  pack_ns : int;
}

(* Build the payload -> executed function once per session.  Workload
   mode looks the workload up in the registry, builds its closed inputs
   and the session's resident state, and round-trips typed task/result
   values — through the blob codec when the workload declares one, so
   bulk float results skip [Marshal] on both transports; [Closures]
   mode expects a marshalled [unit -> string] whose output is already
   the result payload. *)
let executor (mode : Message.mode) : string -> executed =
  match mode with
  | Message.Workload { name; size } -> (
      match Workload.find name with
      | None -> failwith (Printf.sprintf "dist worker: unknown workload %S" name)
      | Some (module W) ->
          let inputs = W.inputs ~size and resident = W.resident () in
          fun payload ->
            let t0 = Clock.now_ns () in
            let task : W.task = Marshal.from_string payload 0 in
            let t1 = Clock.now_ns () in
            let r = W.execute inputs resident task in
            let t2 = Clock.now_ns () in
            let out =
              match W.result_blob with
              | Some (enc, _) -> Message.Floats_p (enc r)
              | None -> Message.Bytes_p (Marshal.to_string r [])
            in
            let t3 = Clock.now_ns () in
            {
              out;
              unpack_ns = t1 - t0;
              exec_start_ns = t1;
              exec_end_ns = t2;
              pack_ns = t3 - t2;
            })
  | Message.Closures ->
      fun payload ->
        let t0 = Clock.now_ns () in
        let f : unit -> string = Marshal.from_string payload 0 in
        let t1 = Clock.now_ns () in
        let out = f () in
        let t2 = Clock.now_ns () in
        {
          out = Message.Bytes_p out;
          unpack_ns = t1 - t0;
          exec_start_ns = t1;
          exec_end_ns = t2;
          pack_ns = 0;
        }

let max_recorded_spans = 8192

(* ---------------- session state shared by both loops ---------------- *)

type session = {
  hello : Message.hello;
  execute : string -> executed;
  gc0 : Gc.stat;
  mw0 : float;
  mutable tasks_executed : int;
  mutable fishes_sent : int;
  mutable tasks_stolen : int;
  mutable grants_given : int;
  mutable exec_ns : int;
  mutable spans : Message.task_span list;
  mutable nspans : int;
  mutable spans_dropped : int;
}

let start_session hello =
  {
    hello;
    execute = executor hello.Message.mode;
    gc0 = Gc.quick_stat ();
    (* [quick_stat]'s [minor_words] only advances at collection
       boundaries; [Gc.minor_words] reads the live allocation pointer,
       which matters in a worker too short-lived to ever minor-collect. *)
    mw0 = Gc.minor_words ();
    tasks_executed = 0;
    fishes_sent = 0;
    tasks_stolen = 0;
    grants_given = 0;
    exec_ns = 0;
    spans = [];
    nspans = 0;
    spans_dropped = 0;
  }

(* Execute one task payload and push its result (blob-aware) to the
   coordinator. *)
let run_task s ~coord ~task_id ~round ~stolen payload =
  let recv_done_ns = Clock.now_ns () in
  let e = s.execute payload in
  let c = Link.counters coord in
  c.Wire.unpack_ns <- c.Wire.unpack_ns + e.unpack_ns;
  c.Wire.pack_ns <- c.Wire.pack_ns + e.pack_ns;
  s.exec_ns <- s.exec_ns + (e.exec_end_ns - e.exec_start_ns);
  s.tasks_executed <- s.tasks_executed + 1;
  if stolen then s.tasks_stolen <- s.tasks_stolen + 1;
  if s.hello.Message.trace then
    if s.nspans < max_recorded_spans then begin
      s.nspans <- s.nspans + 1;
      s.spans <-
        {
          Message.span_task_id = task_id;
          recv_done_ns;
          span_unpack_ns = e.unpack_ns;
          exec_start_ns = e.exec_start_ns;
          exec_end_ns = e.exec_end_ns;
          span_pack_ns = e.pack_ns;
        }
        :: s.spans
    end
    else s.spans_dropped <- s.spans_dropped + 1;
  Message.send_result coord ~task_id ~round e.out

let stats_of_session s ~(links : Link.t list) : Message.worker_stats =
  let gc1 = Gc.quick_stat () in
  (* traffic summed over every link the PE holds: the coordinator link
     plus (shm) all peer links *)
  let agg = Wire.fresh_counters () in
  List.iter
    (fun l ->
      let c = Link.counters l in
      agg.Wire.msgs_sent <- agg.Wire.msgs_sent + c.Wire.msgs_sent;
      agg.Wire.msgs_recv <- agg.Wire.msgs_recv + c.Wire.msgs_recv;
      agg.Wire.bytes_sent <- agg.Wire.bytes_sent + c.Wire.bytes_sent;
      agg.Wire.bytes_recv <- agg.Wire.bytes_recv + c.Wire.bytes_recv;
      agg.Wire.packets_sent <- agg.Wire.packets_sent + c.Wire.packets_sent;
      agg.Wire.packets_recv <- agg.Wire.packets_recv + c.Wire.packets_recv;
      agg.Wire.payload_bytes_sent <-
        agg.Wire.payload_bytes_sent + c.Wire.payload_bytes_sent;
      agg.Wire.payload_bytes_recv <-
        agg.Wire.payload_bytes_recv + c.Wire.payload_bytes_recv;
      agg.Wire.zero_copy_bytes_sent <-
        agg.Wire.zero_copy_bytes_sent + c.Wire.zero_copy_bytes_sent;
      agg.Wire.zero_copy_bytes_recv <-
        agg.Wire.zero_copy_bytes_recv + c.Wire.zero_copy_bytes_recv;
      agg.Wire.pack_ns <- agg.Wire.pack_ns + c.Wire.pack_ns;
      agg.Wire.unpack_ns <- agg.Wire.unpack_ns + c.Wire.unpack_ns)
    links;
  {
    Message.stats_pe = s.hello.Message.pe;
    tasks_executed = s.tasks_executed;
    fishes_sent = s.fishes_sent;
    tasks_stolen = s.tasks_stolen;
    grants_given = s.grants_given;
    msgs_sent = agg.Wire.msgs_sent;
    msgs_recv = agg.Wire.msgs_recv;
    bytes_sent = agg.Wire.bytes_sent;
    bytes_recv = agg.Wire.bytes_recv;
    packets_sent = agg.Wire.packets_sent;
    packets_recv = agg.Wire.packets_recv;
    payload_bytes_sent = agg.Wire.payload_bytes_sent;
    payload_bytes_recv = agg.Wire.payload_bytes_recv;
    zero_copy_bytes_sent = agg.Wire.zero_copy_bytes_sent;
    zero_copy_bytes_recv = agg.Wire.zero_copy_bytes_recv;
    pack_ns = agg.Wire.pack_ns;
    unpack_ns = agg.Wire.unpack_ns;
    exec_ns = s.exec_ns;
    gc_minor_collections =
      (Gc.quick_stat ()).minor_collections - s.gc0.minor_collections;
    gc_major_collections = gc1.major_collections - s.gc0.major_collections;
    gc_minor_words = Gc.minor_words () -. s.mw0;
    gc_promoted_words = gc1.promoted_words -. s.gc0.promoted_words;
    spans = List.rev s.spans;
    spans_dropped = s.spans_dropped;
    (* the whole default registry, not a hand-picked subset: whatever
       collectors the PE process registered (link counters, wire
       errors, GC) travel to the coordinator in one snapshot *)
    metrics = Repro_metrics.Metrics.snapshot ();
  }

(* ---------------- sock loop (star topology) ---------------- *)

let serve_sock () =
  let conn =
    Link.Sock (Wire.create ~read_fd:Unix.stdin ~write_fd:Unix.stdin ())
  in
  let hello = Message.recv_hello conn in
  let s = start_session hello in
  let running = ref true in
  while !running do
    match Message.recv_to_worker conn with
    | Schedule { task_id; round; stealable = _; payload } ->
        run_task s ~coord:conn ~task_id ~round ~stolen:false payload;
        (* GUM-style demand: ask for more as soon as the result is off. *)
        Message.send_to_coordinator conn Message.Fish;
        s.fishes_sent <- s.fishes_sent + 1
    | No_work ->
        (* Nothing runnable at the coordinator; the blocking recv at
           the top of the loop is the wait. *)
        ()
    | Harvest ->
        Message.send_to_coordinator conn
          (Stats (stats_of_session s ~links:[ conn ]))
    | Shutdown -> running := false
  done

(* ---------------- shm loop (mesh topology) ---------------- *)

type queued = {
  q_task_id : int;
  q_round : int;
  q_stealable : bool;
  q_payload : string;
  q_stolen : bool;
}

let serve_shm ~path ~(p2p : (int * [ `A | `B ] * string) list) =
  let ring = Shm_ring.attach ~path ~side:`B ~doorbell:Unix.stdin () in
  let conn = Link.Shm ring in
  let hello = Message.recv_hello conn in
  let peers =
    Array.of_list
      (List.map
         (fun (pe, side, p) -> (pe, Link.Shm (Shm_ring.attach ~path:p ~side ())))
         p2p)
  in
  (* every segment is mapped: the coordinator may unlink the files *)
  Message.send_to_coordinator conn Message.Ready;
  let s = start_session hello in
  let q : queued Queue.t = Queue.create () in
  let all_links = Array.append [| conn |] (Array.map snd peers) in
  (* Fishing generation: which peers already said "no work" for the
     current round.  Reset whenever fresh work arrives. *)
  let no_work_from = Array.make (Array.length peers) false in
  let fish_outstanding = ref None in
  let next_victim = ref (hello.Message.pe + 1) in
  let cur_round = ref (-1) in
  let cur_stealable = ref false in
  let running = ref true in
  let fresh_work round stealable =
    if round <> !cur_round then Array.fill no_work_from 0 (Array.length no_work_from) false;
    cur_round := round;
    cur_stealable := stealable
  in
  let handle_coord () =
    match Message.recv_to_worker conn with
    | Schedule { task_id; round; stealable; payload } ->
        fresh_work round stealable;
        Queue.add
          {
            q_task_id = task_id;
            q_round = round;
            q_stealable = stealable;
            q_payload = payload;
            q_stolen = false;
          }
          q
    | No_work -> ()
    | Harvest ->
        Message.send_to_coordinator conn
          (Stats (stats_of_session s ~links:(Array.to_list all_links)))
    | Shutdown -> running := false
  in
  let handle_peer i plink =
    match Message.recv_to_peer plink with
    | Peer_fish { thief_pe = _; round } ->
        (* Grant only surplus from the round being fished: at least
           one task stays here (we are obviously still busy), pinned
           tasks never move. *)
        let surplus = Queue.length q - 1 in
        if
          surplus >= 1
          && (not (Queue.is_empty q))
          && (Queue.peek q).q_round = round
          && (Queue.peek q).q_stealable
        then begin
          let give = (surplus + 1) / 2 in
          let tasks =
            Array.init give (fun _ ->
                let t = Queue.pop q in
                (t.q_task_id, t.q_payload))
          in
          s.grants_given <- s.grants_given + give;
          Message.send_to_peer plink (Peer_grant { round; tasks })
        end
        else Message.send_to_peer plink (Peer_no_work { round })
    | Peer_grant { round; tasks } ->
        if !fish_outstanding = Some i then fish_outstanding := None;
        Array.iter
          (fun (task_id, payload) ->
            Queue.add
              {
                q_task_id = task_id;
                q_round = round;
                q_stealable = true;
                q_payload = payload;
                q_stolen = true;
              }
              q)
          tasks
    | Peer_no_work { round } ->
        if !fish_outstanding = Some i then fish_outstanding := None;
        if round = !cur_round then no_work_from.(i) <- true
  in
  while !running do
    let progress = ref false in
    while !running && Link.input_ready conn do
      progress := true;
      handle_coord ()
    done;
    if !running then
      Array.iteri
        (fun i (_, plink) ->
          while Link.input_ready plink do
            progress := true;
            handle_peer i plink
          done)
        peers;
    if !running then
      if not (Queue.is_empty q) then begin
        progress := true;
        let t = Queue.pop q in
        cur_round := t.q_round;
        cur_stealable := t.q_stealable;
        run_task s ~coord:conn ~task_id:t.q_task_id ~round:t.q_round
          ~stolen:t.q_stolen t.q_payload
      end
      else if
        (* idle in a stealable round: fish one rotating victim at a
           time, until every peer has said no for this round *)
        !cur_stealable
        && !fish_outstanding = None
        && Array.length peers > 0
        && Array.exists not no_work_from
      then begin
        let n = Array.length peers in
        let tries = ref 0 in
        while !fish_outstanding = None && !tries < n do
          let i = !next_victim mod n in
          next_victim := !next_victim + 1;
          incr tries;
          if not no_work_from.(i) then begin
            Message.send_to_peer (snd peers.(i))
              (Peer_fish { thief_pe = hello.Message.pe; round = !cur_round });
            s.fishes_sent <- s.fishes_sent + 1;
            fish_outstanding := Some i
          end
        done
      end;
    if !running && not !progress then Link.wait_any ~timeout:0.002 all_links
  done

(* ---------------- entry points ---------------- *)

(* argv after the marker: [shm=PATH] selects the shm transport;
   [p2p=PE:SIDE:PATH] adds one peer link per token. *)
let parse_tokens argv =
  let shm = ref None and p2p = ref [] in
  for i = 2 to Array.length argv - 1 do
    let tok = argv.(i) in
    match String.index_opt tok '=' with
    | Some eq -> (
        let key = String.sub tok 0 eq in
        let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
        match key with
        | "shm" -> shm := Some v
        | "p2p" -> (
            match String.split_on_char ':' v with
            | [ pe; side; path ] ->
                let side =
                  match side with
                  | "a" -> `A
                  | "b" -> `B
                  | _ -> failwith ("dist worker: bad p2p side in " ^ tok)
                in
                p2p := (int_of_string pe, side, path) :: !p2p
            | _ -> failwith ("dist worker: bad p2p token " ^ tok))
        | _ -> failwith ("dist worker: unknown argv token " ^ tok))
    | None -> failwith ("dist worker: unknown argv token " ^ tok)
  done;
  (!shm, List.rev !p2p)

let serve argv =
  match parse_tokens argv with
  | None, [] -> serve_sock ()
  | Some path, p2p -> serve_shm ~path ~p2p
  | None, _ :: _ -> failwith "dist worker: p2p links without an shm coordinator link"

let main argv =
  match serve argv with
  | () -> exit 0
  | exception End_of_file ->
      (* coordinator vanished without Shutdown *)
      exit 1
  | exception e ->
      prerr_endline ("dist worker: " ^ Printexc.to_string e);
      exit 2

let maybe_run argv = if is_worker_invocation argv then main argv
