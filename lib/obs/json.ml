(* The tree's one JSON (RFC 8259) codec.

   Reader: recursive descent over the whole input; every malformed
   input is an [Error] naming the byte offset, never an exception.
   Writer: compact, member order preserved, with the tree's only
   string escaper.  Decoders: small [Result] combinators (required
   field, optional field with a default, list, scalar leaves) whose
   errors name the field, so callers decode outside input without
   hand-written per-field matching. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "\\u escape needs four hex digits"
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let utf8_add b cp =
    (* encode one scalar; lone surrogates pass through as-is, which is
       lossy but never raises — snapshots are ASCII in practice *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> utf8_add b (hex4 ())
         | _ -> fail "bad escape");
        go ()
      end
      else if Char.code c < 0x20 then fail "raw control character in string"
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digit () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          true
      | _ -> false
    in
    let digits1 () = if not (digit ()) then fail "expected digit" else while digit () do () done in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
    | Some '0' -> advance ()
    | _ -> digits1 ());
    (match peek () with
    | Some '.' ->
        advance ();
        digits1 ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits1 ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  (* nesting is bounded so a hostile line cannot exhaust the stack *)
  let rec value depth =
    if depth > 512 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
        end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ---------- writer ---------- *)

let add_string b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring b s !start (i - !start);
        start := i + 1;
        Buffer.add_string b
          (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | '\t' -> "\\t"
          | c -> Printf.sprintf "\\u%04x" (Char.code c))
      end)
    s;
  Buffer.add_substring b s !start (String.length s - !start);
  Buffer.add_char b '"'

(* Shortest of 15/16/17 significant digits that reads back exactly:
   if a shorter decimal round-tripped, so would the nearest 15-digit
   one, and %g drops trailing zeros. *)
let add_num b f =
  if Float.is_integer f && Float.abs f <= 0x1p53 then
    Buffer.add_string b (string_of_int (int_of_float f))
  else if Float.is_finite f then begin
    let exact s = float_of_string s = f in
    let s = Printf.sprintf "%.15g" f in
    Buffer.add_string b
      (if exact s then s
       else
         let s = Printf.sprintf "%.16g" f in
         if exact s then s else Printf.sprintf "%.17g" f)
  end
  else Buffer.add_string b "null"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> add_num b f
  | Str s -> add_string b s
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let write v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let of_int n = Num (float_of_int n)

(* ---------- decoders ---------- *)

type 'a decoder = t -> ('a, string) result

let int = function
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> Ok (int_of_float f)
  | _ -> Error "expected an integer"

let float = function Num f -> Ok f | _ -> Error "expected a number"
let bool = function Bool x -> Ok x | _ -> Error "expected a bool"
let string = function Str s -> Ok s | _ -> Error "expected a string"

let list d = function
  | Arr xs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> ( match d x with Ok y -> go (y :: acc) rest | Error e -> Error e)
      in
      go [] xs
  | _ -> Error "expected an array"

let in_field name = function
  | Ok _ as ok -> ok
  | Error e -> Error (Printf.sprintf "field %S: %s" name e)

let field name d = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> in_field name (d v)
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "expected an object"

let opt name d ~default = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with Some v -> in_field name (d v) | None -> Ok default)
  | _ -> Error "expected an object"
