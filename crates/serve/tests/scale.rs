//! Scale: 64 concurrent as-fast-as-possible sessions pushing >100k total
//! submissions through one server, with what-if queries answered throughout.

use std::io::BufReader;
use std::net::TcpStream;

use psbench_serve::{run_pipelined, serve, ClockMode, ServeConfig};

const SESSIONS: usize = 64;
const JOBS_PER_SESSION: usize = 1600; // 64 * 1600 = 102_400 total
const CHUNK: usize = 256;

#[test]
fn sixty_four_sessions_sustain_100k_submissions_with_whatifs() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            scheduler: "fcfs".into(),
            machine: 256,
            mode: ClockMode::Afap,
            max_sessions: SESSIONS,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.addr();

    let workers: Vec<_> = (0..SESSIONS)
        .map(|w| {
            std::thread::spawn(move || -> (usize, usize) {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);

                let hello = run_pipelined(
                    &mut writer,
                    &mut reader,
                    &["hello psbench-serve/1".to_string()],
                )
                .expect("hello");
                assert!(hello[0].starts_with("ok hello"), "{}", hello[0]);

                let mut submitted = 0usize;
                let mut whatifs_ok = 0usize;
                let mut id = 0u64;
                let mut t: i64 = 0;
                while submitted < JOBS_PER_SESSION {
                    let batch = CHUNK.min(JOBS_PER_SESSION - submitted);
                    let mut lines = Vec::with_capacity(batch + 2);
                    for _ in 0..batch {
                        id += 1;
                        t += ((id * 31 + w as u64 * 7) % 11) as i64;
                        let runtime = 1 + ((id * 13) % 900) as i64;
                        let procs = 1 + ((id * 17 + w as u64) % 64) as u32;
                        lines.push(format!(
                            "submit id={id} submit={t} runtime={runtime} procs={procs}"
                        ));
                    }
                    // Every chunk also asks a what-if and a queue query, so
                    // predictions are being served while the firehose runs.
                    // Probe a job ~25% into the backlog: deep enough to be a
                    // real prediction, shallow enough that the probe's fork
                    // does not have to drain the whole firehose every chunk.
                    lines.push(format!("whatif {} under easy", 1 + id / 4));
                    lines.push("query queue".to_string());
                    let replies =
                        run_pipelined(&mut writer, &mut reader, &lines).expect("batch replies");
                    assert_eq!(replies.len(), lines.len(), "worker {w} lost replies");
                    for reply in &replies[..batch] {
                        assert!(reply.starts_with("ok submit"), "worker {w}: {reply}");
                    }
                    assert!(
                        replies[batch].starts_with("ok whatif"),
                        "worker {w}: {}",
                        replies[batch]
                    );
                    assert!(
                        replies[batch + 1].starts_with("ok queue"),
                        "worker {w}: {}",
                        replies[batch + 1]
                    );
                    whatifs_ok += 1;
                    submitted += batch;
                }

                // Drain in lockstep (the reply carries a payload).
                use std::io::Write;
                writeln!(writer, "drain").expect("send drain");
                writer.flush().expect("flush drain");
                let (head, body) = psbench_serve::read_reply(&mut reader)
                    .expect("read drain reply")
                    .expect("drain reply present");
                assert!(head.starts_with("ok drain"), "worker {w}: {head}");
                assert!(
                    head.contains(&format!("finished={submitted}")),
                    "worker {w}: {head}"
                );
                assert!(body.is_some(), "drain payload missing");
                (submitted, whatifs_ok)
            })
        })
        .collect();

    let mut total = 0usize;
    for worker in workers {
        let (submitted, whatifs) = worker.join().expect("worker thread");
        assert!(whatifs > 0);
        total += submitted;
    }
    assert!(total >= 100_000, "only {total} submissions");
    server.stop();
}
