(** Trace exporters: Chrome trace-event JSON (load in Perfetto or
    [chrome://tracing]) and VCD (any waveform viewer).  Both render
    the ring's retained window; 1 cycle = 1 µs in Chrome, 1 ns in VCD. *)

module G = Muir_core.Graph
module Tr = Trace
module Ctr = Counters

(* RFC 8259 string escaping lives in {!Json}; hostile node/structure
   names (quotes, backslashes, control characters) are covered by the
   strict-parser round-trip test in [test/test_trace.ml]. *)
let json_escape = Json.escape

let node_name (c : G.circuit) (tid : int) (nid : int) : string =
  match
    List.find_opt
      (fun (n : G.node) -> n.nid = nid)
      (G.task c tid).nodes
  with
  | Some n ->
    if n.label = "" then Fmt.str "n%d %s" nid (G.kind_to_string n.kind)
    else Fmt.str "n%d %s [%s]" nid (G.kind_to_string n.kind) n.label
  | None -> Fmt.str "n%d" nid

(** Chrome trace-event JSON.  One process per task (pid = task id,
    named via metadata events), one thread per node; firings are "X"
    complete events spanning the node latency, stall transitions are
    "i" instants, occupancy samples are "C" counter series under a
    dedicated counters process. *)
let chrome (c : G.circuit) (tr : Tr.t) : string =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Fmt.str "\"%s\":%s" k v))
      fields;
    Buffer.add_char buf '}'
  in
  let str s = Fmt.str "\"%s\"" (json_escape s) in
  let counters_pid = 1_000_000 in
  (* metadata: name the processes and threads *)
  List.iter
    (fun (t : G.task) ->
      obj
        [ ("ph", str "M"); ("name", str "process_name");
          ("pid", string_of_int t.tid); ("tid", "0");
          ("args", Fmt.str "{\"name\":%s}" (str ("task " ^ t.tname))) ];
      List.iter
        (fun (n : G.node) ->
          obj
            [ ("ph", str "M"); ("name", str "thread_name");
              ("pid", string_of_int t.tid); ("tid", string_of_int n.nid);
              ("args",
               Fmt.str "{\"name\":%s}" (str (node_name c t.tid n.nid))) ])
        t.nodes)
    c.tasks;
  obj
    [ ("ph", str "M"); ("name", str "process_name");
      ("pid", string_of_int counters_pid); ("tid", "0");
      ("args", Fmt.str "{\"name\":%s}" (str "occupancy")) ];
  let key_name = function
    | Ctr.Ktask tid -> "queue:" ^ (G.task c tid).tname
    | Ctr.Kstruct sid -> (G.structure c sid).sname
  in
  List.iter
    (fun ev ->
      match ev with
      | Tr.Efire { c = cyc; task; inst; node; lat } ->
        obj
          [ ("ph", str "X"); ("name", str (node_name c task node));
            ("cat", str "fire"); ("pid", string_of_int task);
            ("tid", string_of_int node); ("ts", string_of_int cyc);
            ("dur", string_of_int (max lat 1));
            ("args", Fmt.str "{\"inst\":%d}" inst) ]
      | Tr.Estall { c = cyc; task; inst; node; cause } ->
        obj
          [ ("ph", str "i"); ("name", str (Ctr.cause_name cause));
            ("cat", str "stall"); ("s", str "t");
            ("pid", string_of_int task); ("tid", string_of_int node);
            ("ts", string_of_int cyc);
            ("args", Fmt.str "{\"inst\":%d}" inst) ]
      | Tr.Eocc { c = cyc; key; depth } ->
        obj
          [ ("ph", str "C"); ("name", str (key_name key));
            ("pid", string_of_int counters_pid); ("ts", string_of_int cyc);
            ("args", Fmt.str "{\"depth\":%d}" depth) ])
    (Tr.events tr);
  Buffer.add_string buf
    (Fmt.str "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"circuit\":%s,\"cycles\":%d}}"
       (str c.cname) tr.final_cycle);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* VCD                                                                  *)

(** Printable VCD identifier for wire [i]: base-94 over '!'..'~'. *)
let vcd_id (i : int) : string =
  let rec go i acc =
    let acc = String.make 1 (Char.chr (33 + (i mod 94))) ^ acc in
    if i < 94 then acc else go ((i / 94) - 1) acc
  in
  go i ""

let sanitize (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let binary_of_int (v : int) : string =
  if v = 0 then "0"
  else begin
    let rec go v acc = if v = 0 then acc else go (v / 2) (string_of_int (v mod 2) ^ acc) in
    go v ""
  end

(** VCD dump of the retained window: a 1-bit fire pulse per node
    (grouped in one scope per task) and a 16-bit occupancy bus per
    task queue / memory structure.  Fire wires auto-clear the cycle
    after they pulse. *)
let vcd (c : G.circuit) (tr : Tr.t) : string =
  let buf = Buffer.create 65536 in
  let p fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "$date 0 $end";
  p "$version muir trace $end";
  p "$timescale 1ns $end";
  (* wire ids *)
  let next = ref 0 in
  let fresh () =
    let id = vcd_id !next in
    incr next;
    id
  in
  let fire_ids = Hashtbl.create 64 in
  p "$scope module %s $end" (sanitize c.cname);
  List.iter
    (fun (t : G.task) ->
      p "$scope module %s $end" (sanitize t.tname);
      List.iter
        (fun (n : G.node) ->
          let id = fresh () in
          Hashtbl.replace fire_ids (t.tid, n.nid) id;
          p "$var wire 1 %s n%d_%s $end" id n.nid
            (sanitize (G.kind_to_string n.kind)))
        t.nodes;
      p "$upscope $end")
    c.tasks;
  let occ_ids = Hashtbl.create 8 in
  let occ_keys = Tr.occupancy_keys tr in
  if occ_keys <> [] then begin
    p "$scope module occupancy $end";
    List.iter
      (fun key ->
        let id = fresh () in
        Hashtbl.replace occ_ids key id;
        let name =
          match key with
          | Ctr.Ktask tid -> "queue_" ^ sanitize (G.task c tid).tname
          | Ctr.Kstruct sid -> sanitize (G.structure c sid).sname
        in
        p "$var wire 16 %s %s $end" id name)
      occ_keys;
    p "$upscope $end"
  end;
  p "$upscope $end";
  p "$enddefinitions $end";
  (* initial values *)
  p "#0";
  Hashtbl.iter (fun _ id -> p "0%s" id) fire_ids;
  Hashtbl.iter (fun _ id -> p "b0 %s" id) occ_ids;
  (* dump: group events by cycle, clearing fire pulses one ns later *)
  let cur = ref (-1) in
  let hot = ref [] in
  let open_cycle cyc =
    if cyc <> !cur then begin
      (* clear last cycle's pulses at cur+1 (never later than cyc) *)
      if !hot <> [] then begin
        p "#%d" (!cur + 1);
        List.iter (fun id -> p "0%s" id) !hot;
        hot := []
      end;
      p "#%d" cyc;
      cur := cyc
    end
  in
  List.iter
    (fun ev ->
      match ev with
      | Tr.Efire { c = cyc; task; node; _ } -> (
        open_cycle cyc;
        match Hashtbl.find_opt fire_ids (task, node) with
        | Some id ->
          p "1%s" id;
          if not (List.mem id !hot) then hot := id :: !hot
        | None -> ())
      | Tr.Eocc { c = cyc; key; depth } -> (
        open_cycle cyc;
        match Hashtbl.find_opt occ_ids key with
        | Some id -> p "b%s %s" (binary_of_int depth) id
        | None -> ())
      | Tr.Estall _ -> ())
    (Tr.events tr);
  if !hot <> [] then begin
    p "#%d" (!cur + 1);
    List.iter (fun id -> p "0%s" id) !hot
  end;
  p "#%d" (max tr.final_cycle (!cur + 2));
  Buffer.contents buf
